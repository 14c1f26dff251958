//! The cloud–edge–client hierarchy of Fig. 1.
//!
//! A [`Topology`] records which clients each edge server manages and how
//! many samples each client holds. Group formation is *scoped per edge
//! server* (Algorithm 1, Lines 2–3: each edge server groups only its own
//! clients), so the trainer iterates edges and hands each one's client
//! roster to the grouping algorithm.

use serde::{Deserialize, Serialize};

/// Global client identifier.
pub type ClientId = usize;
/// Edge-server identifier.
pub type EdgeId = usize;

/// Static description of the client–edge–cloud hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// `edge_clients[j]` = client ids managed by edge server `j`.
    edge_clients: Vec<Vec<ClientId>>,
    /// `samples[i]` = number of training samples on client `i` (`n_i`).
    samples: Vec<usize>,
}

impl Topology {
    /// Builds a topology from explicit edge rosters and client sample counts.
    ///
    /// # Panics
    /// Panics if a client appears on two edges, an id is out of range, or
    /// some client is unassigned.
    pub fn new(edge_clients: Vec<Vec<ClientId>>, samples: Vec<usize>) -> Self {
        let n = samples.len();
        let mut owner = vec![usize::MAX; n];
        for (j, clients) in edge_clients.iter().enumerate() {
            for &c in clients {
                assert!(c < n, "client id {c} out of range");
                assert_eq!(owner[c], usize::MAX, "client {c} assigned to two edges");
                owner[c] = j;
            }
        }
        assert!(
            owner.iter().all(|&o| o != usize::MAX),
            "every client must be assigned to an edge server"
        );
        Self {
            edge_clients,
            samples,
        }
    }

    /// Splits `samples.len()` clients evenly across `num_edges` edge servers
    /// in id order — the paper's setup ("three edge servers and each of them
    /// has 100 clients").
    pub fn even_split(num_edges: usize, samples: Vec<usize>) -> Self {
        assert!(num_edges > 0, "need at least one edge server");
        let n = samples.len();
        let mut edge_clients = vec![Vec::new(); num_edges];
        for c in 0..n {
            edge_clients[c * num_edges / n.max(1)].push(c);
        }
        Self::new(edge_clients, samples)
    }

    /// Number of edge servers.
    pub fn num_edges(&self) -> usize {
        self.edge_clients.len()
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.samples.len()
    }

    /// The clients managed by edge server `j`.
    pub fn clients_of(&self, j: EdgeId) -> &[ClientId] {
        &self.edge_clients[j]
    }

    /// Total samples across all clients (`n`).
    pub fn total_samples(&self) -> usize {
        self.samples.iter().sum()
    }

    /// All sample counts.
    pub fn all_samples(&self) -> &[usize] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_partitions_everyone() {
        let t = Topology::even_split(3, vec![10; 300]);
        assert_eq!(t.num_edges(), 3);
        let total: usize = (0..3).map(|j| t.clients_of(j).len()).sum();
        assert_eq!(total, 300);
        for j in 0..3 {
            assert_eq!(t.clients_of(j).len(), 100);
        }
    }

    #[test]
    fn uneven_split_is_balanced() {
        let t = Topology::even_split(3, vec![1; 10]);
        let sizes: Vec<usize> = (0..3).map(|j| t.clients_of(j).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)), "{sizes:?}");
    }

    #[test]
    fn totals() {
        let t = Topology::even_split(2, vec![5, 10, 15, 20]);
        assert_eq!(t.total_samples(), 50);
    }

    #[test]
    #[should_panic(expected = "assigned to two edges")]
    fn duplicate_assignment_panics() {
        Topology::new(vec![vec![0, 1], vec![1]], vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "must be assigned")]
    fn unassigned_client_panics() {
        Topology::new(vec![vec![0]], vec![1, 1]);
    }
}
