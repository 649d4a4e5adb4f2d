//! Structure-of-Arrays router storage for the mesh hot path.
//!
//! [`crate::router::Router`] is the *specification* of one router — inline
//! 64-slot rings, `Option` route/owner fields — and stays the unit under
//! test for port semantics. The simulator, however, services thousands of
//! routers per cycle, and an array-of-structs `Vec<Router>` pays for the
//! specification's generality twice over:
//!
//! * each router is ~10 KiB (five 64-slot inline rings) even though the
//!   paper's default depth is **2**, so two routers never share a cache
//!   line and the working set is ~50× larger than the live data;
//! * the scheduler's per-cycle bookkeeping reads only a few scalar fields
//!   (lengths, routes, owners) but drags whole rings through the cache to
//!   get them.
//!
//! [`RouterSlab`] stores the same state as dense parallel arrays sized to
//! the *configured* buffer depth: all ring lengths adjacent, all routes
//! adjacent, and the flit slots packed at `cap` per input port where `cap`
//! is the depth rounded up to a power of two (minimum 2). `Option<u8>`
//! fields are packed as `0xFF = None`. A per-router bit mask of non-empty
//! inputs lets a service visit only the ports holding a flit.
//!
//! The specification's per-output `last_used` stamp has no counterpart
//! here: the executor services each router at most once per cycle, so "used
//! this cycle" is a per-service mask the executor keeps itself, and the
//! slab answers only the ownership half ([`RouterSlab::output_free`]).

use crate::flit::{Flit, FlitKind};
use crate::router::NUM_PORTS;

/// Packed `None` for route/owner bytes.
pub(crate) const NO_PORT: u8 = 0xFF;

const EMPTY_FLIT: Flit = Flit {
    dest: 0,
    src: 0,
    payload: 0,
    kind: FlitKind::HeadTail,
    packet: 0,
    ready_at: 0,
    corrupted: false,
};

/// Dense SoA storage for every router in the mesh.
#[derive(Debug)]
pub(crate) struct RouterSlab {
    /// Routers.
    n: usize,
    /// Ring capacity per input port (power of two ≥ 2, ≥ buffer depth).
    cap: usize,
    /// Flit slots: `cap` per input port, `NUM_PORTS` ports per router.
    flits: Vec<Flit>,
    /// Ring head index per input port (free-running, masked by `cap - 1`).
    head: Vec<u32>,
    /// Buffered flit count per input port.
    len: Vec<u32>,
    /// Assigned output per input port (`NO_PORT` = none).
    route: Vec<u8>,
    /// Owning input per output port (`NO_PORT` = none).
    owner: Vec<u8>,
    /// Per router, bit `p` set iff input `p` buffers at least one flit.
    nonempty: Vec<u8>,
}

impl RouterSlab {
    /// Storage for `n` routers with the given logical buffer depth.
    pub fn new(n: usize, buffer_depth: usize) -> Self {
        assert!(buffer_depth >= 1, "buffer depth must be at least 1");
        let cap = buffer_depth.next_power_of_two().max(2);
        RouterSlab {
            n,
            cap,
            flits: vec![EMPTY_FLIT; n * NUM_PORTS * cap],
            head: vec![0; n * NUM_PORTS],
            len: vec![0; n * NUM_PORTS],
            route: vec![NO_PORT; n * NUM_PORTS],
            owner: vec![NO_PORT; n * NUM_PORTS],
            nonempty: vec![0; n],
        }
    }

    /// Ring capacity per input port.
    #[cfg(test)]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Buffered flits across all of router `r`'s inputs.
    #[inline]
    pub fn occupancy(&self, r: usize) -> usize {
        self.len[r * NUM_PORTS..(r + 1) * NUM_PORTS]
            .iter()
            .map(|&l| l as usize)
            .sum()
    }

    /// True when router `r` buffers nothing.
    pub fn is_empty(&self, r: usize) -> bool {
        self.nonempty[r] == 0
    }

    /// Router `r`'s non-empty inputs: bit `p` is set iff input `p` buffers
    /// at least one flit.
    #[inline]
    pub fn nonempty_inputs(&self, r: usize) -> u8 {
        self.nonempty[r]
    }

    /// Routers in the slab.
    pub fn routers(&self) -> usize {
        self.n
    }

    #[inline]
    fn port(r: usize, p: usize) -> usize {
        debug_assert!(p < NUM_PORTS);
        r * NUM_PORTS + p
    }

    /// Buffered flit count of input `p` of router `r`.
    #[inline]
    pub fn input_len(&self, r: usize, p: usize) -> usize {
        self.len[Self::port(r, p)] as usize
    }

    /// Oldest buffered flit of input `p` of router `r`, if any (copied —
    /// flits are small and `Copy`).
    #[inline]
    pub fn front(&self, r: usize, p: usize) -> Option<Flit> {
        let i = Self::port(r, p);
        if self.len[i] == 0 {
            return None;
        }
        let slot = i * self.cap + (self.head[i] as usize & (self.cap - 1));
        Some(self.flits[slot])
    }

    /// Append a flit to input `p` of router `r`. Panics if the ring's
    /// physical capacity is exceeded (the mesh checks logical space first,
    /// exactly as it did against [`crate::router::FlitRing`]).
    #[inline]
    pub fn push_back(&mut self, r: usize, p: usize, flit: Flit) {
        let i = Self::port(r, p);
        let len = self.len[i] as usize;
        assert!(len < self.cap, "input ring overflow");
        let slot = i * self.cap + ((self.head[i] as usize + len) & (self.cap - 1));
        self.flits[slot] = flit;
        self.len[i] += 1;
        self.nonempty[r] |= 1 << p;
    }

    /// Remove and return the oldest buffered flit of input `p` of router
    /// `r`.
    #[inline]
    pub fn pop_front(&mut self, r: usize, p: usize) -> Option<Flit> {
        let i = Self::port(r, p);
        if self.len[i] == 0 {
            return None;
        }
        let slot = i * self.cap + (self.head[i] as usize & (self.cap - 1));
        self.head[i] = self.head[i].wrapping_add(1);
        self.len[i] -= 1;
        if self.len[i] == 0 {
            self.nonempty[r] &= !(1 << p);
        }
        Some(self.flits[slot])
    }

    /// Assigned output of input `p` of router `r`.
    #[inline]
    pub fn route(&self, r: usize, p: usize) -> Option<u8> {
        let v = self.route[Self::port(r, p)];
        (v != NO_PORT).then_some(v)
    }

    /// Assign (or clear, with `NO_PORT`) the route of input `p`.
    #[inline]
    pub fn set_route_raw(&mut self, r: usize, p: usize, v: u8) {
        self.route[Self::port(r, p)] = v;
    }

    /// Owning input of output `o` of router `r` (the hot path reads it
    /// only through [`RouterSlab::output_free`]).
    #[cfg(test)]
    pub fn owner(&self, r: usize, o: usize) -> Option<u8> {
        let v = self.owner[Self::port(r, o)];
        (v != NO_PORT).then_some(v)
    }

    /// Set (or clear, with `NO_PORT`) the owner of output `o`.
    #[inline]
    pub fn set_owner_raw(&mut self, r: usize, o: usize, v: u8) {
        self.owner[Self::port(r, o)] = v;
    }

    /// Whether input `p` of router `r` can accept another flit under a
    /// logical buffer depth of `depth` flits
    /// ([`crate::router::Router::has_space_depth`]).
    #[inline]
    pub fn has_space_depth(&self, r: usize, p: usize, depth: usize) -> bool {
        self.input_len(r, p) < depth
    }

    /// Whether the wormhole channel of output `o` of router `r` is open to
    /// input `p`: un-owned or owned by `p` (the ownership half of
    /// [`crate::router::Router::output_available`]).
    #[inline]
    pub fn output_free(&self, r: usize, o: usize, p: usize) -> bool {
        let owner = self.owner[Self::port(r, o)];
        owner == NO_PORT || owner as usize == p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;
    use crate::router::Router;

    fn some_flit(payload: u64) -> Flit {
        let mut f = Packet::headerless(0, 0, vec![1]).flits()[0];
        f.payload = payload;
        f
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two_with_floor_two() {
        assert_eq!(RouterSlab::new(1, 1).cap(), 2);
        assert_eq!(RouterSlab::new(1, 2).cap(), 2);
        assert_eq!(RouterSlab::new(1, 3).cap(), 4);
        assert_eq!(RouterSlab::new(1, 64).cap(), 64);
    }

    #[test]
    fn fifo_order_and_wraparound_match_flit_ring() {
        let mut slab = RouterSlab::new(2, 2);
        let mut next = 0u64;
        let mut expect = 0u64;
        // Push/pop far past the ring capacity so the head wraps, on a
        // non-zero router/port to exercise the indexing.
        for _ in 0..(64 * 3) {
            slab.push_back(1, 3, some_flit(next));
            next += 1;
            slab.push_back(1, 3, some_flit(next));
            next += 1;
            assert_eq!(slab.input_len(1, 3), 2);
            assert!(!slab.has_space_depth(1, 3, 2));
            assert_eq!(slab.front(1, 3).unwrap().payload, expect);
            assert_eq!(slab.pop_front(1, 3).unwrap().payload, expect);
            assert_eq!(slab.pop_front(1, 3).unwrap().payload, expect + 1);
            expect += 2;
            assert!(slab.pop_front(1, 3).is_none());
        }
        // Router 0 was never touched.
        assert_eq!(slab.input_len(0, 3), 0);
        assert!(slab.is_empty(0));
    }

    #[test]
    fn output_availability_matches_router_semantics() {
        // `output_free` is the ownership half of `Router::output_available`;
        // the once-per-cycle half is the executor's per-service mask. With
        // the reference output never used, the two must agree for every
        // owner (none or any input) and every requesting input.
        let o = 2;
        let mut slab = RouterSlab::new(1, 2);
        let mut reference = Router::default();
        for owner in std::iter::once(None).chain((0..NUM_PORTS as u8).map(Some)) {
            slab.set_owner_raw(0, o, owner.unwrap_or(NO_PORT));
            reference.outputs[o].owner = owner;
            for p in 0..NUM_PORTS {
                assert_eq!(
                    slab.output_free(0, o, p),
                    reference.output_available(o, p, 10),
                    "owner {owner:?}, input {p}"
                );
            }
        }
        // Releasing the channel opens it to every input again.
        slab.set_owner_raw(0, o, NO_PORT);
        assert!((0..NUM_PORTS).all(|p| slab.output_free(0, o, p)));
    }

    #[test]
    fn nonempty_mask_tracks_port_lengths() {
        let mut slab = RouterSlab::new(3, 3);
        let check = |slab: &RouterSlab| {
            for r in 0..slab.routers() {
                let mask = slab.nonempty_inputs(r);
                for p in 0..NUM_PORTS {
                    assert_eq!(
                        mask & (1 << p) != 0,
                        slab.input_len(r, p) > 0,
                        "router {r} port {p}"
                    );
                }
                assert_eq!(slab.is_empty(r), slab.occupancy(r) == 0);
            }
        };
        check(&slab);
        // Fill and drain every port of router 1 in a staggered pattern far
        // past the ring capacity, so heads wrap while other ports of the
        // same router hold flits.
        let mut payload = 0;
        for round in 0..(3 * slab.cap()) {
            for p in 0..NUM_PORTS {
                for _ in 0..=((round + p) % 3) {
                    if slab.has_space_depth(1, p, 3) {
                        slab.push_back(1, p, some_flit(payload));
                        payload += 1;
                        check(&slab);
                    }
                }
            }
            for p in 0..NUM_PORTS {
                for _ in 0..=((round + 2 * p) % 3) {
                    slab.pop_front(1, p);
                    check(&slab);
                }
            }
        }
        while (0..NUM_PORTS).any(|p| slab.pop_front(1, p).is_some()) {
            check(&slab);
        }
        assert_eq!(slab.nonempty_inputs(1), 0);
        // Routers 0 and 2 were never touched.
        assert_eq!(slab.nonempty_inputs(0) | slab.nonempty_inputs(2), 0);
    }

    #[test]
    fn route_and_owner_pack_none_as_sentinel() {
        let mut slab = RouterSlab::new(3, 2);
        assert_eq!(slab.route(2, 4), None);
        slab.set_route_raw(2, 4, 2);
        assert_eq!(slab.route(2, 4), Some(2));
        slab.set_route_raw(2, 4, NO_PORT);
        assert_eq!(slab.route(2, 4), None);
        assert_eq!(slab.owner(1, 0), None);
        slab.set_owner_raw(1, 0, 4);
        assert_eq!(slab.owner(1, 0), Some(4));
    }

    #[test]
    fn occupancy_sums_all_inputs() {
        let mut slab = RouterSlab::new(2, 4);
        slab.push_back(1, 0, some_flit(0));
        slab.push_back(1, 2, some_flit(1));
        slab.push_back(1, 2, some_flit(2));
        assert_eq!(slab.occupancy(1), 3);
        assert_eq!(slab.occupancy(0), 0);
        assert!(!slab.is_empty(1));
    }
}
