//! The BigQuery stand-in: bulk queries over deployment metadata.

use crate::address::Address;
use crate::state::SimulatedChain;
use phishinghook_synth::Month;

/// Read-only bulk query service over the simulated chain, mirroring the
/// Google BigQuery public Ethereum dataset the paper scans for contract
/// hashes (Fig. 1-➊).
#[derive(Debug, Clone, Copy)]
pub struct QueryService<'a> {
    chain: &'a SimulatedChain,
}

impl<'a> QueryService<'a> {
    /// Creates a query service over a chain.
    pub fn new(chain: &'a SimulatedChain) -> Self {
        QueryService { chain }
    }

    /// Addresses of every contract deployed in `[from, to]` (inclusive), in
    /// deployment order — the paper's "contracts deployed between October
    /// 2023 and October 2024" scan.
    pub fn contracts_deployed_between(&self, from: Month, to: Month) -> Vec<Address> {
        self.stream_deployed_between(from, to).collect()
    }

    /// Streaming form of [`contracts_deployed_between`]: yields matching
    /// addresses lazily, in deployment order, without materializing the
    /// scan. On the real BigQuery backend this is a paged cursor; here it
    /// keeps a 68-million-contract-scale scan from ever holding the full
    /// address list in memory.
    ///
    /// [`contracts_deployed_between`]: QueryService::contracts_deployed_between
    pub fn stream_deployed_between(
        self,
        from: Month,
        to: Month,
    ) -> impl Iterator<Item = Address> + 'a {
        self.chain
            .records()
            .iter()
            .filter(move |r| r.month >= from && r.month <= to)
            .map(|r| r.address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_synth::{generate_corpus, CorpusConfig};

    #[test]
    fn window_query_covers_everything() {
        let corpus = generate_corpus(&CorpusConfig::small(6));
        let chain = SimulatedChain::from_corpus(&corpus);
        let q = QueryService::new(&chain);
        let all = q.contracts_deployed_between(Month(0), Month(12));
        assert_eq!(all.len(), chain.len());
    }

    #[test]
    fn narrow_window_filters() {
        let corpus = generate_corpus(&CorpusConfig::small(8));
        let chain = SimulatedChain::from_corpus(&corpus);
        let q = QueryService::new(&chain);
        let early = q.contracts_deployed_between(Month(0), Month(3));
        let late = q.contracts_deployed_between(Month(4), Month(12));
        assert_eq!(early.len() + late.len(), chain.len());
        assert!(!early.is_empty() && !late.is_empty());
    }

    #[test]
    fn stream_matches_bulk_query() {
        let corpus = generate_corpus(&CorpusConfig::small(12));
        let chain = SimulatedChain::from_corpus(&corpus);
        let q = QueryService::new(&chain);
        let bulk = q.contracts_deployed_between(Month(2), Month(9));
        let streamed: Vec<_> = q.stream_deployed_between(Month(2), Month(9)).collect();
        assert_eq!(bulk, streamed);
        // Lazy: the first element is available without draining the scan.
        let mut stream = q.stream_deployed_between(Month(0), Month(12));
        assert_eq!(stream.next(), bulk_first(&chain));
    }

    fn bulk_first(chain: &SimulatedChain) -> Option<Address> {
        chain.records().first().map(|r| r.address)
    }
}
