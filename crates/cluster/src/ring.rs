//! Client-facing session routing: consistent hashing with session affinity.
//!
//! Sessions (think: client connections) are assigned to coordinators by a
//! consistent-hash ring — each coordinator owns `VNODES_PER_COORDINATOR`
//! points on a 64-bit ring, and a session lands on the first live
//! coordinator clockwise from its hash. The two properties the tier needs:
//!
//! * **session affinity** — a session keeps its coordinator as long as that
//!   coordinator lives (cached in the affinity map), so interactive
//!   transactions never migrate mid-conversation;
//! * **minimal rebalance** — when a coordinator dies, only *its* sessions
//!   move (each to the next live point on the ring); when it re-registers,
//!   only the sessions that originally hashed to its vnodes move back.
//!
//! A third, optional input is **load**: a cluster can install a *saturation
//! probe* ([`SessionRouter::set_saturation_probe`]) reporting which
//! coordinators are currently saturated (all worker permits taken and
//! arrivals queueing). Routing then steers sessions away from saturated
//! coordinators — before their leases lapse — whenever an unsaturated live
//! alternative exists, and the displaced-goes-home rule brings them back
//! once the pressure clears. Without a probe, routing is pure
//! liveness-driven consistent hashing, unchanged.

use std::cell::RefCell;
use std::rc::Rc;

use geotp_simrt::hash::FxHashMap;

use crate::membership::MembershipTable;

/// Virtual nodes per coordinator: enough to spread load within a few percent
/// at the tier sizes we model (1–8 coordinators).
const VNODES_PER_COORDINATOR: u32 = 64;

/// 64-bit SplitMix-style mix — deterministic, seedless, good avalanche.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Ring position of a coordinator's vnode. Salted into its own hash domain:
/// with a shared domain, session `s` hashed *exactly onto* coordinator 0's
/// vnode `replica == s` (identical `mix` input), and the clockwise walk then
/// sent every small session id to coordinator 0.
fn vnode_position(coord: u32, replica: u32) -> u64 {
    mix(0xc0_0d1e ^ ((coord as u64) << 32) ^ replica as u64 ^ (1 << 63))
}

/// Ring position of a session (the client-side hash domain).
fn session_position(session: u64) -> u64 {
    mix(session ^ 0x005e_5510)
}

/// `probe(coord)` → "is this coordinator saturated right now?".
type SaturationProbe = Box<dyn Fn(u32) -> bool>;

/// The session router for one cluster.
pub struct SessionRouter {
    membership: Rc<MembershipTable>,
    /// `(ring_position, coordinator)`, sorted by position.
    vnodes: Vec<(u64, u32)>,
    /// Session → `(assigned coordinator, its epoch at assignment, ring
    /// home)`. Invalidated when the assigned coordinator is no longer alive
    /// at that epoch, or when the session's home coordinator comes back. The
    /// home is cached so the common path (affinity hit) stays O(1).
    affinity: RefCell<FxHashMap<u64, (u32, u64, u32)>>,
    /// Optional load signal: `probe(coord)` reports whether the coordinator
    /// is saturated right now. `None` = routing ignores load.
    saturation: RefCell<Option<SaturationProbe>>,
}

impl SessionRouter {
    /// Build the ring over every coordinator slot of `membership`.
    pub fn new(membership: Rc<MembershipTable>) -> Self {
        let mut vnodes = Vec::with_capacity(membership.slots() * VNODES_PER_COORDINATOR as usize);
        for coord in 0..membership.slots() as u32 {
            for replica in 0..VNODES_PER_COORDINATOR {
                vnodes.push((vnode_position(coord, replica), coord));
            }
        }
        vnodes.sort_unstable();
        Self {
            membership,
            vnodes,
            affinity: RefCell::new(FxHashMap::default()),
            saturation: RefCell::new(None),
        }
    }

    /// Install the saturation probe (see module docs). The cluster wires this
    /// to its admission gates at build time.
    pub fn set_saturation_probe(&self, probe: impl Fn(u32) -> bool + 'static) {
        *self.saturation.borrow_mut() = Some(Box::new(probe));
    }

    fn saturated(&self, coord: u32) -> bool {
        self.saturation
            .borrow()
            .as_ref()
            .is_some_and(|probe| probe(coord))
    }

    /// Whether some live coordinator other than `coord` is not saturated —
    /// i.e. routing away from `coord` has somewhere better to go.
    fn has_unsaturated_alternative(&self, coord: u32) -> bool {
        self.membership
            .live_coordinators()
            .iter()
            .any(|&c| c != coord && !self.saturated(c))
    }

    /// Route `session` to a live coordinator: the cached assignment while its
    /// coordinator lives *and the session's ring home is not back* —
    /// a failed-over session returns to its home coordinator when that slot
    /// re-registers (the "only its sessions move back" half of minimal
    /// rebalance). Otherwise the first live coordinator clockwise from the
    /// session's ring position (cached for affinity). `None` when no
    /// coordinator is alive.
    pub fn route(&self, session: u64) -> Option<u32> {
        if let Some(&(coord, epoch, home)) = self.affinity.borrow().get(&session) {
            let displaced = coord != home && self.membership.is_alive(home);
            if self.membership.is_alive(coord)
                && self.membership.current_epoch(coord) == epoch
                && !displaced
                && !(self.saturated(coord) && self.has_unsaturated_alternative(coord))
            {
                return Some(coord);
            }
        }
        let coord = self.ring_walk(session)?;
        self.affinity.borrow_mut().insert(
            session,
            (
                coord,
                self.membership.current_epoch(coord),
                self.ring_home(session),
            ),
        );
        Some(coord)
    }

    /// The session's *home* coordinator: the first one clockwise regardless
    /// of liveness — where consistent hashing puts the session when the whole
    /// tier is healthy.
    fn ring_home(&self, session: u64) -> u32 {
        debug_assert!(!self.vnodes.is_empty());
        let position = session_position(session);
        let start = self.vnodes.partition_point(|&(p, _)| p < position);
        self.vnodes[start % self.vnodes.len()].1
    }

    /// First live coordinator clockwise from `hash(session)`, preferring
    /// unsaturated ones: the walk skips saturated coordinators on its first
    /// lap and falls back to the first live one when the whole tier is
    /// saturated (liveness beats load).
    fn ring_walk(&self, session: u64) -> Option<u32> {
        if self.vnodes.is_empty() {
            return None;
        }
        let position = session_position(session);
        let start = self.vnodes.partition_point(|&(p, _)| p < position);
        let n = self.vnodes.len();
        let mut first_live = None;
        for i in 0..n {
            let (_, coord) = self.vnodes[(start + i) % n];
            if self.membership.is_alive(coord) {
                if !self.saturated(coord) {
                    return Some(coord);
                }
                first_live.get_or_insert(coord);
            }
        }
        first_live
    }

    /// Drop one session's cached assignment (idle-session reaping): its next
    /// `begin` re-routes from the ring as if it had never connected.
    pub fn forget(&self, session: u64) {
        self.affinity.borrow_mut().remove(&session);
    }

    /// Number of sessions with a cached assignment (memory telemetry for the
    /// reaper's 10^6-session story).
    pub fn affinity_len(&self) -> usize {
        self.affinity.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipConfig;
    use geotp_simrt::Runtime;

    fn table(coordinators: usize) -> Rc<MembershipTable> {
        let t = Rc::new(MembershipTable::new(
            coordinators,
            MembershipConfig::default(),
        ));
        for c in 0..coordinators as u32 {
            t.register(c);
        }
        t
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let membership = table(4);
            let router = SessionRouter::new(Rc::clone(&membership));
            let mut counts = [0u32; 4];
            for session in 0..4_000u64 {
                let coord = router.route(session).unwrap();
                assert_eq!(router.route(session), Some(coord), "affinity is sticky");
                counts[coord as usize] += 1;
            }
            for (i, c) in counts.iter().enumerate() {
                assert!(
                    (500..=1_500).contains(c),
                    "coordinator {i} got {c} of 4000 sessions — ring badly unbalanced: {counts:?}"
                );
            }
        });
    }

    /// Regression: sessions and vnodes used to share one hash domain, so
    /// session `s` landed exactly on coordinator 0's vnode `replica == s` —
    /// every small (sequential) session id routed to coordinator 0 and the
    /// rest of the tier idled.
    #[test]
    fn small_sequential_sessions_spread_over_coordinators() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let membership = table(2);
            let router = SessionRouter::new(Rc::clone(&membership));
            let assigned: std::collections::BTreeSet<u32> =
                (0..8u64).map(|s| router.route(s).unwrap()).collect();
            assert_eq!(
                assigned.len(),
                2,
                "the first 8 sessions must reach both coordinators"
            );
        });
    }

    #[test]
    fn dead_coordinator_sessions_fail_over_others_stay_put() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let membership = table(3);
            let router = SessionRouter::new(Rc::clone(&membership));
            let before: Vec<u32> = (0..3_000u64).map(|s| router.route(s).unwrap()).collect();
            membership.declare_dead(1);
            let mut moved = 0;
            for (session, &coord) in before.iter().enumerate() {
                let after = router.route(session as u64).unwrap();
                assert_ne!(after, 1, "nothing routes to a dead coordinator");
                if coord == 1 {
                    moved += 1;
                } else {
                    // Consistent hashing: survivors' sessions do not move.
                    assert_eq!(after, coord, "session {session} moved needlessly");
                }
            }
            assert!(moved > 0, "the dead coordinator had sessions to move");
        });
    }

    /// The second half of minimal rebalance: when a dead coordinator
    /// re-registers, exactly the sessions whose ring *home* it is move back;
    /// everyone else's affinity is untouched.
    #[test]
    fn revived_coordinator_gets_its_home_sessions_back() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let membership = table(3);
            let router = SessionRouter::new(Rc::clone(&membership));
            let home: Vec<u32> = (0..3_000u64).map(|s| router.route(s).unwrap()).collect();
            membership.declare_dead(1);
            // Failover: dm1's sessions migrate and are cached elsewhere.
            for s in 0..3_000u64 {
                assert_ne!(router.route(s).unwrap(), 1);
            }
            // Revival: dm1's home sessions return; nobody else moves.
            membership.register(1);
            for (s, &h) in home.iter().enumerate() {
                assert_eq!(
                    router.route(s as u64),
                    Some(h),
                    "session {s} must be back on its home coordinator"
                );
            }
        });
    }

    /// Load-aware routing: a session leaves its saturated coordinator while
    /// an unsaturated live alternative exists, and returns home when the
    /// pressure clears; when *every* coordinator is saturated it stays put
    /// (shedding happens at admission, not in the router).
    #[test]
    fn saturated_coordinator_is_avoided_until_pressure_clears() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let membership = table(2);
            let router = SessionRouter::new(Rc::clone(&membership));
            let hot: Rc<std::cell::Cell<Option<u32>>> = Rc::new(std::cell::Cell::new(None));
            let probe_hot = Rc::clone(&hot);
            router.set_saturation_probe(move |c| {
                let h = probe_hot.get();
                h == Some(c) || h == Some(u32::MAX)
            });
            let session = (0..100u64)
                .find(|&s| router.route(s) == Some(0))
                .expect("some session homes on coordinator 0");
            hot.set(Some(0));
            assert_eq!(
                router.route(session),
                Some(1),
                "session leaves its saturated home"
            );
            // Everyone saturated: load no longer discriminates, so routing
            // degenerates to plain consistent hashing — the displaced
            // session returns to its ring home (shedding happens at
            // admission, not in the router).
            hot.set(Some(u32::MAX));
            assert_eq!(router.route(session), Some(0), "uniform load goes home");
            hot.set(Some(0));
            assert_eq!(router.route(session), Some(1), "leaves again under load");
            hot.set(None);
            assert_eq!(
                router.route(session),
                Some(0),
                "returns home once the pressure clears"
            );
        });
    }

    #[test]
    fn forget_drops_affinity_for_one_session() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let membership = table(2);
            let router = SessionRouter::new(Rc::clone(&membership));
            let home = router.route(7).unwrap();
            assert_eq!(router.affinity_len(), 1);
            router.forget(7);
            assert_eq!(router.affinity_len(), 0);
            assert_eq!(router.route(7), Some(home), "re-routes to the same home");
        });
    }

    #[test]
    fn all_dead_routes_none_and_revival_restores() {
        let mut rt = Runtime::new();
        rt.block_on(async {
            let membership = table(2);
            let router = SessionRouter::new(Rc::clone(&membership));
            membership.declare_dead(0);
            membership.declare_dead(1);
            assert_eq!(router.route(9), None);
            membership.register(0);
            assert_eq!(router.route(9), Some(0));
        });
    }
}
