//! Data partitioning: mapping global keys to data sources.
//!
//! The paper's YCSB deployment partitions the `usertable` with one million
//! records per data node (range partitioning); TPC-C partitions by warehouse.
//! The router tells the middleware which data source owns each key
//! so a client transaction can be split into per-data-source subtransactions.

use crate::ops::{ClientOp, GlobalKey};

/// A round's operations split per data source, as indices into the round:
/// groups in data-source order, each group's operations in round order.
/// Filled by [`Partitioner::split_into`]; the buffers are kept across
/// rounds, so a coordinator's steady state splits without allocating.
#[derive(Debug, Default, Clone)]
pub struct RoundGroups {
    /// `(data source, end of its members)`, in data-source order.
    bounds: Vec<(u32, usize)>,
    /// Operation indices, grouped.
    members: Vec<usize>,
}

impl RoundGroups {
    /// Number of groups (branches of the round).
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether the round touched no data source.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Group `group`: its data source and its operation indices.
    pub fn get(&self, group: usize) -> (u32, &[usize]) {
        let start = group.checked_sub(1).map_or(0, |prev| self.bounds[prev].1);
        let (ds, end) = self.bounds[group];
        (ds, &self.members[start..end])
    }

    /// The groups in data-source order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[usize])> + '_ {
        (0..self.len()).map(|group| self.get(group))
    }

    /// Stable-sort each group's operations by `key`.
    pub fn sort_each_by_key<K: Ord>(&mut self, mut key: impl FnMut(usize) -> K) {
        let mut start = 0;
        for &(_, end) in &self.bounds {
            self.members[start..end].sort_by_key(|&op| key(op));
            start = end;
        }
    }
}

/// Partitioning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Range partitioning: rows `[i*rows_per_node, (i+1)*rows_per_node)` live
    /// on data source `i` (YCSB's layout).
    Range {
        /// Rows per data source.
        rows_per_node: u64,
        /// Number of data sources.
        nodes: u32,
    },
    /// Hash partitioning: `row % nodes`.
    Hash {
        /// Number of data sources.
        nodes: u32,
    },
    /// Partition by a warehouse id encoded in the upper 32 bits of the row key
    /// (TPC-C's layout; see `geotp-workloads::tpcc` for the encoding).
    ByWarehouse {
        /// Warehouses hosted per data source.
        warehouses_per_node: u32,
        /// Number of data sources.
        nodes: u32,
    },
}

impl Partitioner {
    /// Number of data sources this partitioner spreads data over.
    pub fn nodes(&self) -> u32 {
        match self {
            Partitioner::Range { nodes, .. }
            | Partitioner::Hash { nodes }
            | Partitioner::ByWarehouse { nodes, .. } => *nodes,
        }
    }

    /// The data-source index owning `key`.
    pub fn route(&self, key: GlobalKey) -> u32 {
        match self {
            Partitioner::Range {
                rows_per_node,
                nodes,
            } => ((key.row / rows_per_node) as u32).min(nodes.saturating_sub(1)),
            Partitioner::Hash { nodes } => (key.row % *nodes as u64) as u32,
            Partitioner::ByWarehouse {
                warehouses_per_node,
                nodes,
            } => {
                let warehouse = (key.row >> 32) as u32;
                // Warehouse ids are 1-based in TPC-C.
                let idx = warehouse.saturating_sub(1) / warehouses_per_node;
                idx.min(nodes.saturating_sub(1))
            }
        }
    }

    /// Split a batch of operations into per-data-source groups, preserving
    /// operation order within each group. Returns `(ds_index, ops)` pairs
    /// sorted by data-source index.
    pub fn split<'a>(&self, ops: &'a [ClientOp]) -> Vec<(u32, Vec<&'a ClientOp>)> {
        let mut groups = RoundGroups::default();
        self.split_into(ops, &mut groups);
        groups
            .iter()
            .map(|(ds, members)| (ds, members.iter().map(|&op| &ops[op]).collect()))
            .collect()
    }

    /// [`Partitioner::split`] into reusable buffers: the same groups, as
    /// indices into `ops`.
    pub fn split_into(&self, ops: &[ClientOp], groups: &mut RoundGroups) {
        groups.bounds.clear();
        groups.members.clear();
        for op in ops {
            let ds = self.route(op.key());
            if !groups.bounds.iter().any(|(idx, _)| *idx == ds) {
                groups.bounds.push((ds, 0));
            }
        }
        groups.bounds.sort_unstable_by_key(|(idx, _)| *idx);
        for (ds, end) in groups.bounds.iter_mut() {
            let routed_here = |(_, op): &(usize, &ClientOp)| self.route(op.key()) == *ds;
            let members = ops.iter().enumerate().filter(routed_here);
            groups.members.extend(members.map(|(idx, _)| idx));
            *end = groups.members.len();
        }
    }

    /// The distinct data sources a set of keys touches.
    pub fn involved_nodes(&self, keys: &[GlobalKey]) -> Vec<u32> {
        let mut nodes = Vec::new();
        self.involved_nodes_into(keys, &mut nodes);
        nodes
    }

    /// Collect the distinct data sources touched by `keys` into a reusable
    /// buffer (cleared first).
    pub fn involved_nodes_into(&self, keys: &[GlobalKey], buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(keys.iter().map(|k| self.route(*k)));
        buf.sort_unstable();
        buf.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_storage::TableId;

    fn gk(row: u64) -> GlobalKey {
        GlobalKey::new(TableId(0), row)
    }

    #[test]
    fn range_routing_matches_ycsb_layout() {
        let p = Partitioner::Range {
            rows_per_node: 1_000_000,
            nodes: 4,
        };
        assert_eq!(p.route(gk(0)), 0);
        assert_eq!(p.route(gk(999_999)), 0);
        assert_eq!(p.route(gk(1_000_000)), 1);
        assert_eq!(p.route(gk(3_999_999)), 3);
        // Out-of-range rows clamp to the last node.
        assert_eq!(p.route(gk(10_000_000)), 3);
        assert_eq!(p.nodes(), 4);
    }

    #[test]
    fn hash_routing() {
        let p = Partitioner::Hash { nodes: 3 };
        assert_eq!(p.route(gk(0)), 0);
        assert_eq!(p.route(gk(4)), 1);
        assert_eq!(p.route(gk(5)), 2);
    }

    #[test]
    fn warehouse_routing_uses_upper_bits() {
        let p = Partitioner::ByWarehouse {
            warehouses_per_node: 16,
            nodes: 4,
        };
        let wh_key = |w: u64, rest: u64| gk((w << 32) | rest);
        assert_eq!(p.route(wh_key(1, 5)), 0);
        assert_eq!(p.route(wh_key(16, 0)), 0);
        assert_eq!(p.route(wh_key(17, 0)), 1);
        assert_eq!(p.route(wh_key(64, 123)), 3);
    }

    #[test]
    fn split_groups_by_data_source_preserving_order() {
        let p = Partitioner::Range {
            rows_per_node: 10,
            nodes: 2,
        };
        let ops = vec![
            ClientOp::add(gk(1), 1),
            ClientOp::add(gk(11), 2),
            ClientOp::Read(gk(2)),
            ClientOp::Read(gk(12)),
        ];
        let groups = p.split(&ops);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[0].1[0].key(), gk(1));
        assert_eq!(groups[0].1[1].key(), gk(2));
        assert_eq!(groups[1].0, 1);
        assert_eq!(groups[1].1[0].key(), gk(11));
    }

    #[test]
    fn involved_nodes_deduplicates() {
        let p = Partitioner::Hash { nodes: 4 };
        let nodes = p.involved_nodes(&[gk(0), gk(4), gk(1), gk(9)]);
        assert_eq!(nodes, vec![0, 1]);
    }
}
