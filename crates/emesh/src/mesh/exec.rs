//! The mesh executor: the per-router service step and the cycle loop.
//!
//! Every router service step — injection, wormhole forwarding, ejection,
//! fault evaluation, latency and telemetry taps — lives here exactly once
//! and runs on one thread that owns the whole [`Mesh`]. The step borrows
//! the mesh as two disjoint halves, so it can hold router state while it
//! records scheduler effects:
//!
//! * [`CoreView`] — router-indexed state: the SoA router slab, the
//!   neighbour and coordinate tables, injection queues, memory interfaces,
//!   sinks, forward counters, fault trial counters and link-outage windows,
//!   plus the outputs used by the service in progress;
//! * [`MasterFx`] — global, order-sensitive scheduler state: the wake
//!   wheel, flit conservation counters, energy, fault statistics, the NACK
//!   retransmission queue, the latency table and telemetry histograms.
//!
//! Fault schedules are per-site counter-hash streams: each Bernoulli site
//! (a router's corruption stream, a directed link's outage stream) owns a
//! trial counter, and [`sim_core::faults::hash_bernoulli`] makes a trial's
//! outcome a pure function of `(seed, site, trial)`. A fault realization
//! therefore depends only on how often each site was consulted, never on
//! the order routers are serviced in (DESIGN.md §11).

use std::collections::VecDeque;

use sim_core::invariant;
use sim_core::stats::Histogram;
use sim_core::telemetry::SeriesHistogram;

use super::soa::{RouterSlab, NO_PORT};
use super::{Mesh, MeshConfig, MeshError, MeshRunResult, RoutingPolicy, WakeWheel, NEVER, NO_NODE};
use crate::energy::EnergyCounters;
use crate::faults::{FaultHot, FaultMasterView, Retransmit, PROBE_INTERVAL};
use crate::flit::{Flit, FlitKind, Packet};
use crate::memif::MemIf;
use crate::router::{Port, NUM_PORTS};
use crate::topology::NodeCoord;

const LOCAL: usize = Port::Local as usize;

/// Every port's bit in a per-router port mask.
const ALL_PORTS: u32 = (1 << NUM_PORTS) - 1;

/// Router-indexed mesh state: what a service step reads and writes
/// directly. The scheduler state stays behind [`MasterFx`].
struct CoreView<'a> {
    cfg: &'a MeshConfig,
    slab: &'a mut RouterSlab,
    /// Flattened `router * NUM_PORTS + port` neighbour table.
    neighbors: &'a [u32],
    coords: &'a [NodeCoord],
    inject: &'a mut [VecDeque<Flit>],
    memif_slot: &'a [Option<u32>],
    memifs: &'a mut [MemIf],
    sink_delivered: &'a mut [u64],
    sink_last_cycle: &'a mut [u64],
    sink_words: &'a mut [Vec<u64>],
    router_forwards: &'a mut [u64],
    collect_sink_words: bool,
    fault: Option<&'a mut FaultHot>,
    /// Latency tracking attached: emit head/tail packet timestamps.
    latency_on: bool,
    /// Telemetry attached: emit pre-service occupancy samples.
    tel_on: bool,
    /// Outputs of the router under service that already carried a flit
    /// this cycle (bit per port). A router is serviced at most once per
    /// cycle, so this per-service mask is the whole once-per-cycle rule.
    outputs_used: u8,
}

/// Scheduler state, with one method per effect a service step has on it.
struct MasterFx<'m> {
    wheel: &'m mut WakeWheel,
    processed_at: &'m mut [u64],
    in_flight: &'m mut u64,
    pending_inject: &'m mut u64,
    energy: &'m mut EnergyCounters,
    fault: Option<FaultMasterView<'m>>,
    /// Packet-id-indexed inject cycle table and the latency histogram.
    lat: Option<(&'m mut Vec<u64>, &'m mut Histogram)>,
    occupancy: Option<&'m mut SeriesHistogram>,
    /// Telemetry activity bounds: (first_active, last_active) per router.
    activity: Option<(&'m mut [u64], &'m mut [u64])>,
}

impl MasterFx<'_> {
    /// Drain bookkeeping for one bucket entry: dedup via `processed_at`
    /// and stamp the telemetry activity bounds. Returns whether the entry
    /// should actually be serviced.
    #[inline]
    fn bookkeep(&mut self, ri: usize, c: u64) -> bool {
        if self.processed_at[ri] == c {
            return false; // redundant wakeup for a cycle already serviced
        }
        self.processed_at[ri] = c;
        if let Some((first, last)) = self.activity.as_mut() {
            if first[ri] == NEVER {
                first[ri] = c;
            }
            last[ri] = c;
        }
        true
    }

    /// Schedule a wakeup of `router` at `cycle` (> the cycle under
    /// service).
    #[inline]
    fn wake(&mut self, router: u32, cycle: u64) {
        self.wheel.push(router, cycle);
    }

    /// A flit left an injection queue into the network.
    #[inline]
    fn injected(&mut self) {
        *self.pending_inject -= 1;
        *self.in_flight += 1;
        self.energy.injections += 1;
    }

    /// A flit left the network (memory interface or processor sink).
    #[inline]
    fn ejected(&mut self) {
        invariant!(
            *self.in_flight > 0,
            "flit conservation: eject with in_flight = 0"
        );
        *self.in_flight -= 1;
        self.energy.ejections += 1;
    }

    /// A router datapath traversal (energy).
    #[inline]
    fn traversal(&mut self) {
        self.energy.router_traversals += 1;
    }

    /// An inter-router link hop (energy).
    #[inline]
    fn hop(&mut self) {
        self.energy.link_hops += 1;
    }

    /// Pre-service input-buffer occupancy sample (telemetry attached).
    #[inline]
    fn occ_sample(&mut self, occ: u64) {
        if let Some(h) = self.occupancy.as_mut() {
            h.record(occ);
        }
    }

    /// A head flit of `packet` entered the network at `cycle` (latency
    /// tracking attached).
    #[inline]
    fn head_injected(&mut self, packet: u64, cycle: u64) {
        if let Some((t0, _)) = self.lat.as_mut() {
            let id = packet as usize;
            if t0.len() <= id {
                t0.resize(id + 1, NEVER);
            }
            t0[id] = cycle;
        }
    }

    /// A tail flit of `packet` left the network at `cycle` (latency
    /// tracking attached).
    #[inline]
    fn tail_ejected(&mut self, packet: u64, cycle: u64) {
        if let Some((t0, h)) = self.lat.as_mut() {
            if let Some(slot) = t0.get_mut(packet as usize) {
                if *slot != NEVER {
                    h.record(cycle - *slot);
                    *slot = NEVER;
                }
            }
        }
    }

    /// A payload flit was poisoned in flight.
    #[inline]
    fn corrupted(&mut self) {
        self.fault
            .as_mut()
            .expect("corruption implies faults")
            .stats
            .corrupted_flits += 1;
    }

    /// A transient link outage fired.
    #[inline]
    fn link_down_event(&mut self) {
        self.fault
            .as_mut()
            .expect("outage implies faults")
            .stats
            .link_down_events += 1;
    }

    /// A blocked sender probed a dead neighbour.
    #[inline]
    fn probe(&mut self) {
        self.fault
            .as_mut()
            .expect("probe implies faults")
            .stats
            .probes += 1;
    }

    /// An element was lost for good.
    #[inline]
    fn dropped_element(&mut self) {
        self.fault
            .as_mut()
            .expect("drop implies faults")
            .stats
            .dropped_elements += 1;
    }

    /// Memory interface at `router` detected a poisoned element from
    /// `src`: account the NACK and (budget permitting) schedule the
    /// retransmission.
    fn nack(&mut self, router: u32, src: u32, packet: u64, payload: u64, cycle: u64) {
        let fl = self.fault.as_mut().expect("corrupted implies faults");
        fl.stats.nacks += 1;
        if !fl.retransmit {
            fl.stats.dropped_elements += 1;
            return;
        }
        let attempts = fl.attempts.entry((src, packet)).or_insert(0);
        if *attempts >= fl.max_retransmits {
            fl.stats.dropped_elements += 1;
            return;
        }
        *attempts += 1;
        fl.stats.retransmits += 1;
        fl.retx.push_back(Retransmit {
            due: cycle + fl.nack_delay,
            src,
            packet: Packet::with_header(router, packet, vec![payload]),
        });
    }
}

impl CoreView<'_> {
    /// The neighbour of `node` through `port` (wrapping on a torus).
    #[inline]
    fn neighbor(&self, node: u32, port: Port) -> u32 {
        let n = self.neighbors[node as usize * NUM_PORTS + port as usize];
        debug_assert!(
            n != NO_NODE,
            "node {node} has no neighbour through {port:?}"
        );
        n
    }

    /// Route a head flit at `node` toward `dest`. The adaptive arm reads
    /// the candidate neighbours' *facing* input-port lengths.
    #[inline]
    fn route(&self, node: u32, dest: u32) -> Port {
        if node == dest {
            return Port::Local;
        }
        let c = self.coords[node as usize];
        let d = self.coords[dest as usize];
        if self.cfg.topology.torus {
            // Shortest-direction dimension-order routing over the wrap
            // links: x resolves first, and an equidistant tie goes East /
            // South so every hop is deterministic. The west-first turn
            // model the adaptive arm relies on is unsound on a ring, so
            // `MinimalAdaptive` also takes this deterministic path on a
            // torus (documented limitation, DESIGN.md §16: no VCs, so
            // torus configs rely on the structured deadlock detector).
            let (w, h) = (self.cfg.topology.width, self.cfg.topology.height);
            // Forward distance from `from` to `to` around a ring of `len`.
            let ahead = |from: u32, to: u32, len: u32| {
                if to >= from {
                    to - from
                } else {
                    to + len - from
                }
            };
            if d.x != c.x {
                let east = ahead(c.x, d.x, w);
                return if east <= w - east {
                    Port::East
                } else {
                    Port::West
                };
            }
            let south = ahead(c.y, d.y, h);
            return if south <= h - south {
                Port::South
            } else {
                Port::North
            };
        }
        let want_x = if d.x < c.x {
            Some(Port::West)
        } else if d.x > c.x {
            Some(Port::East)
        } else {
            None
        };
        let want_y = if d.y < c.y {
            Some(Port::North)
        } else if d.y > c.y {
            Some(Port::South)
        } else {
            None
        };
        match (want_x, want_y, self.cfg.policy) {
            (Some(x), None, _) => x,
            (None, Some(y), _) => y,
            (Some(x), Some(_), RoutingPolicy::Xy) => x,
            (Some(x), Some(y), RoutingPolicy::MinimalAdaptive) => {
                // West-first turn model: westward hops must happen first.
                if x == Port::West {
                    return x;
                }
                // Adaptive between x and y: pick the emptier downstream
                // buffer; tie prefers x (dimension order).
                let nx = self.neighbor(node, x);
                let ny = self.neighbor(node, y);
                let ox = self.slab.input_len(nx as usize, x.opposite() as usize);
                let oy = self.slab.input_len(ny as usize, y.opposite() as usize);
                if oy < ox {
                    y
                } else {
                    x
                }
            }
            (None, None, _) => unreachable!("handled by node == dest"),
        }
    }
}

/// Service router `r` at cycle `c`: telemetry tap, dead check, injection,
/// then port service rotated by the cycle number.
#[inline]
fn service_entry(view: &mut CoreView<'_>, r: u32, c: u64, fx: &mut MasterFx<'_>) {
    if view.tel_on {
        // Pre-service occupancy, sampled before the dead check.
        fx.occ_sample(view.slab.occupancy(r as usize) as u64);
    }
    if view.fault.as_ref().is_some_and(|f| f.is_dead(r, c)) {
        return; // a hard-killed router does nothing, forever
    }
    view.outputs_used = 0;
    try_inject(view, r, c, fx);
    // Visit ports (c + k) % NUM_PORTS for k = 0, 1, … but only those
    // holding a flit: an empty input has no side effects. The snapshot is
    // exact because a service pushes only into *other* routers' inputs.
    let first = (c % NUM_PORTS as u64) as u32;
    let mask = u32::from(view.slab.nonempty_inputs(r as usize));
    let mut rotated = ((mask >> first) | (mask << (NUM_PORTS as u32 - first))) & ALL_PORTS;
    while rotated != 0 {
        let k = rotated.trailing_zeros() + first;
        rotated &= rotated - 1;
        let p = if k >= NUM_PORTS as u32 {
            k - NUM_PORTS as u32
        } else {
            k
        };
        try_forward(view, r, p as usize, c, fx);
    }
}

fn try_inject(view: &mut CoreView<'_>, r: u32, c: u64, fx: &mut MasterFx<'_>) {
    let ri = r as usize;
    if view.inject[ri].is_empty() {
        return;
    }
    if !view.slab.has_space_depth(ri, LOCAL, view.cfg.buffer_depth) {
        // Woken when the local input pops.
        return;
    }
    let mut flit = view.inject[ri].pop_front().expect("non-empty");
    flit.src = r;
    flit.ready_at = c + 1 + if flit.kind.is_head() { view.cfg.t_r } else { 0 };
    let ready = flit.ready_at;
    if view.latency_on && flit.kind.is_head() {
        fx.head_injected(flit.packet, c);
    }
    view.slab.push_back(ri, LOCAL, flit);
    invariant!(
        view.slab.input_len(ri, LOCAL) <= view.cfg.buffer_depth,
        "buffer bound: router {r} local input exceeds depth {} after inject",
        view.cfg.buffer_depth
    );
    fx.injected();
    fx.wake(r, ready);
    if !view.inject[ri].is_empty() {
        fx.wake(r, c + 1);
    }
}

fn try_forward(view: &mut CoreView<'_>, r: u32, p: usize, c: u64, fx: &mut MasterFx<'_>) {
    let ri = r as usize;
    let head = view
        .slab
        .front(ri, p)
        .expect("serviced inputs are non-empty");
    if head.ready_at > c {
        fx.wake(r, head.ready_at);
        return;
    }
    // Output port: continuation of an open wormhole, or fresh route.
    let out = match view.slab.route(ri, p) {
        Some(o) => Port::from_index(o as usize),
        None => {
            debug_assert!(head.kind.is_head(), "body flit without a route");
            view.route(r, head.dest)
        }
    };
    let o = out as usize;
    let used = view.outputs_used & (1 << o) != 0;
    if used || !view.slab.output_free(ri, o, p) {
        // Used this cycle (retry next) or owned by another packet (woken
        // on release).
        if used {
            fx.wake(r, c + 1);
        }
        return;
    }

    if out == Port::Local {
        eject(view, r, p, c, fx);
        return;
    }

    let n = view.neighbor(r, out);
    invariant!(n != r, "router {r} forwards into itself through {out:?}");
    let q = out.opposite() as usize;
    if let Some(f) = view.fault.as_deref() {
        if f.is_dead(n, c) {
            // Dead neighbour: hold the flit and re-probe. Nothing will
            // ever answer, so this is a livelock by design — the
            // watchdog converts it into a structured diagnostic.
            fx.probe();
            fx.wake(r, c + PROBE_INTERVAL);
            return;
        }
        let until = f.down_until[ri * NUM_PORTS + o];
        if until > c {
            // Link still down from an earlier outage; resume then.
            fx.wake(r, until);
            return;
        }
    }
    if !view
        .slab
        .has_space_depth(n as usize, q, view.cfg.buffer_depth)
    {
        // Woken when (n, q) pops.
        return;
    }
    if let Some(f) = view.fault.as_deref_mut() {
        // One outage trial per committed traversal of link (r, out).
        if f.link_fire(ri, o) {
            let until = c + f.link_down_cycles;
            f.down_until[ri * NUM_PORTS + o] = until;
            fx.link_down_event();
            fx.wake(r, until);
            return;
        }
    }

    // Commit the move.
    let mut flit = view.slab.pop_front(ri, p).expect("head");
    after_pop(view, r, p, c, fx);
    if let Some(f) = view.fault.as_deref_mut() {
        // Payload corruption in flight, modelled as a failed-ECC flag
        // (header flits are protected: corrupting routing state would
        // misdeliver rather than degrade).
        if !matches!(flit.kind, FlitKind::Head) && f.corrupt_fire(ri) {
            flit.corrupted = true;
            fx.corrupted();
        }
    }
    flit.ready_at = c + 1 + if flit.kind.is_head() { view.cfg.t_r } else { 0 };
    let ready = flit.ready_at;
    update_channel_state(view, r, p, o, &flit, c, fx);
    view.slab.push_back(n as usize, q, flit);
    invariant!(
        view.slab.input_len(n as usize, q) <= view.cfg.buffer_depth,
        "buffer bound: router {n} input port {q} exceeds depth {} after forward",
        view.cfg.buffer_depth
    );
    fx.traversal();
    fx.hop();
    view.router_forwards[ri] += 1;
    fx.wake(n, ready);
}

/// Eject the front flit of input (r, p) into router `r`'s memory interface
/// (respecting its reorder occupancy) or, on a processor node, its sink.
fn eject(view: &mut CoreView<'_>, r: u32, p: usize, c: u64, fx: &mut MasterFx<'_>) {
    let ri = r as usize;
    let memif = view.memif_slot[ri].map(|slot| slot as usize);
    if let Some(slot) = memif {
        let m = &view.memifs[slot];
        if !m.can_accept(c) {
            fx.wake(r, m.free_at());
            return;
        }
    }
    let flit = view.slab.pop_front(ri, p).expect("head");
    after_pop(view, r, p, c, fx);
    update_channel_state(view, r, p, LOCAL, &flit, c, fx);
    if let Some(slot) = memif {
        let m = &mut view.memifs[slot];
        if flit.corrupted {
            // Poisoned element: charge port timing, refuse staging, NACK.
            m.accept_nack(c, &flit);
            fx.nack(r, flit.src, flit.packet, flit.payload, c);
        } else {
            m.accept(c, &flit);
        }
    } else if !matches!(flit.kind, FlitKind::Head) {
        // Processor sink: always ready, one flit per cycle (enforced by
        // the local output's bit in `outputs_used`).
        if flit.corrupted {
            // Sinks detect but do not NACK (the paper's retransmit sits
            // at the memory interface); the word is lost.
            fx.dropped_element();
        } else {
            view.sink_delivered[ri] += 1;
            view.sink_last_cycle[ri] = c;
            if view.collect_sink_words {
                view.sink_words[ri].push(flit.payload);
            }
        }
    }
    if view.latency_on && flit.kind.is_tail() {
        fx.tail_ejected(flit.packet, c);
    }
    fx.ejected();
    fx.traversal();
    view.router_forwards[ri] += 1;
}

/// Book-keeping after popping from input (r, p) at cycle c: wake the
/// feeder (space freed) and ourselves (next flit).
fn after_pop(view: &mut CoreView<'_>, r: u32, p: usize, c: u64, fx: &mut MasterFx<'_>) {
    let ri = r as usize;
    if view.slab.input_len(ri, p) > 0 {
        fx.wake(r, c + 1);
    }
    if p == LOCAL {
        // Feeder is the local injector.
        if !view.inject[ri].is_empty() {
            fx.wake(r, c + 1);
        }
    } else {
        fx.wake(view.neighbor(r, Port::from_index(p)), c + 1);
    }
}

/// Update wormhole ownership and per-input route state for a forwarded
/// flit, and mark the output as used this cycle.
fn update_channel_state(
    view: &mut CoreView<'_>,
    r: u32,
    p: usize,
    o: usize,
    flit: &Flit,
    c: u64,
    fx: &mut MasterFx<'_>,
) {
    let ri = r as usize;
    view.outputs_used |= 1 << o;
    let slab = &mut *view.slab;
    if flit.kind.is_head() {
        slab.set_owner_raw(ri, o, p as u8);
        slab.set_route_raw(ri, p, o as u8);
    }
    if flit.kind.is_tail() {
        slab.set_owner_raw(ri, o, NO_PORT);
        slab.set_route_raw(ri, p, NO_PORT);
        // Channel released: contenders at this router may proceed.
        fx.wake(r, c + 1);
    }
}

impl Mesh {
    /// Borrow the mesh as the two disjoint halves a service step works on.
    fn exec_views(&mut self) -> (CoreView<'_>, MasterFx<'_>) {
        let Mesh {
            cfg,
            slab,
            neighbors,
            coords,
            inject,
            memif_slot,
            memifs,
            sink_delivered,
            sink_last_cycle,
            sink_words,
            collect_sink_words,
            inject_cycle,
            latency,
            wheel,
            processed_at,
            in_flight,
            pending_inject,
            energy,
            router_forwards,
            faults,
            telemetry,
            ..
        } = self;
        let (fault_hot, fault_master) = match faults {
            Some(fl) => {
                let (hot, master) = fl.split_views();
                (Some(hot), Some(master))
            }
            None => (None, None),
        };
        let lat = match (inject_cycle.as_mut(), latency.as_mut()) {
            (Some(t0), Some(h)) => Some((t0, h)),
            _ => None,
        };
        let latency_on = lat.is_some();
        let (occupancy, activity) = match telemetry.as_mut() {
            Some(t) => (
                Some(&mut t.occupancy),
                Some((t.first_active.as_mut_slice(), t.last_active.as_mut_slice())),
            ),
            None => (None, None),
        };
        let tel_on = occupancy.is_some();
        (
            CoreView {
                cfg,
                slab,
                neighbors,
                coords,
                inject,
                memif_slot,
                memifs,
                sink_delivered,
                sink_last_cycle,
                sink_words,
                router_forwards,
                collect_sink_words: *collect_sink_words,
                fault: fault_hot,
                latency_on,
                tel_on,
                outputs_used: 0,
            },
            MasterFx {
                wheel,
                processed_at,
                in_flight,
                pending_inject,
                energy,
                fault: fault_master,
                lat,
                occupancy,
                activity,
            },
        )
    }

    /// The cycle loop. Faults, telemetry, latency tracking and
    /// cancellation all run on it; with none attached each costs one
    /// branch per serviced cycle or router.
    pub(super) fn run_core(&mut self) -> Result<MeshRunResult, MeshError> {
        let mut audit_countdown = super::AUDIT_INTERVAL;
        loop {
            // Next service cycle: earliest wheel wakeup or NACK-retransmit
            // turnaround, whichever comes first.
            let mut next = self.wheel.next_cycle();
            if let Some(due) = self.faults.as_ref().and_then(|fl| fl.next_retx_due()) {
                next = Some(next.map_or(due, |n| n.min(due)));
            }
            let Some(c) = next else { break };
            // Cooperative cancellation: one branch per serviced cycle when
            // no interrupt is installed.
            if let Some(intr) = self.interrupt.as_mut() {
                if let Some(cause) = intr.check(c) {
                    return Err(MeshError::Cancelled {
                        at_cycle: c,
                        cause,
                        in_flight: self.in_flight,
                        pending_inject: self.pending_inject,
                        energy: self.energy,
                    });
                }
            }
            if c > self.cfg.max_cycles {
                return Err(MeshError::CycleLimit {
                    limit: self.cfg.max_cycles,
                });
            }
            debug_assert!(c >= self.now, "wakeup in the past");
            self.now = c;
            self.wheel.advance_to(c);
            self.drain_due_retransmits(c);
            // Drain the bucket for cycle `c` in insertion order.
            let ids = self.wheel.take_bucket(c);
            {
                let (mut view, mut fx) = self.exec_views();
                for &r in &ids {
                    if fx.bookkeep(r as usize, c) {
                        service_entry(&mut view, r, c, &mut fx);
                    }
                }
            }
            self.wheel.restore_bucket(c, ids);
            if sim_core::invariants::ENABLED {
                audit_countdown -= 1;
                if audit_countdown == 0 {
                    audit_countdown = super::AUDIT_INTERVAL;
                    self.check_flit_conservation();
                }
            }
            if self.faults.is_some() {
                self.watchdog_check(c)?;
            }
        }
        self.finish()
    }
}
