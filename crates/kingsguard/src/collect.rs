//! Collection algorithms: nursery, observer and full-heap collections on one
//! tracing engine.
//!
//! The three collections (Section 4.2) differ only in which spaces they
//! condemn and where a survivor goes. Each traces its roots in place — the
//! nursery collection also the nursery remembered set, the observer
//! collection the observer one — and then the closure; one `trace_object`
//! decides per source space, and one `evacuate` copies:
//!
//! | kind | condemned | source | action → destination |
//! |---|---|---|---|
//! | nursery | nursery | nursery | copy → observer space if it fits (KG-W); else large primary if large; else mature DRAM if advised there and it fits; else mature primary |
//! | observer (KG-W) | nursery, observer | observer | copy → large primary if large; else mature DRAM if the policy tenures it there (by default: written) and it fits; else mature primary |
//! | | | nursery | mark in place; pass 2 copies it into the emptied observer space, pass 3 patches references and rebuilds the observer remembered set |
//! | full | whole heap | nursery, observer | copy → large primary if large; else mature DRAM if written or advised there and it fits; else mature primary |
//! | | | mature primary | written PCM object, DRAM space present: rescue → mature DRAM, write bit reset; on a dying page: evacuate → mature DRAM if it fits, else mature primary; else mark in place |
//! | | | mature DRAM | unwritten and the policy lets it go: demote → mature primary; else mark in place |
//! | | | large primary | as mature primary, between the two large spaces |
//! | | | large DRAM | mark in place |

use advice::SiteId;
use hybrid_mem::{Address, MemoryKind, Phase};
use kingsguard_heap::object::{ObjectRef, ObjectShape};

use crate::observer::{CheckPoint, CollectKind, HeapEvent};
use crate::policy::SurvivorPlacement;
use crate::runtime::{KingsguardHeap, Location};
use crate::stats::CompositionSample;

/// The trace state of one collection.
struct Collection {
    kind: CollectKind,
    phase: Phase,
    /// Copied or marked objects whose fields are still to be scanned.
    queue: Vec<ObjectRef>,
    /// Observer collection only: the objects the closure scanned (pass 3).
    scanned: Vec<ObjectRef>,
    /// Observer collection only: nursery objects marked in place (pass 2).
    nursery_live: Vec<ObjectRef>,
}

/// Why an object is copied: selects what `evacuate` counts the copy as,
/// besides what the collection copying it selects.
#[derive(Clone, Copy)]
enum Cause {
    /// A young survivor promoted out of the nursery or observer space;
    /// `advised` is the memory its site advice counts it under.
    Promote { advised: Option<MemoryKind> },
    /// An observer-space survivor tenured by an observer collection.
    Tenure { to_dram: bool },
    /// A written PCM object moved back to DRAM, its write bit reset.
    Rescue { site: SiteId },
    /// An unwritten DRAM mature object demoted to PCM.
    Demotion { site: SiteId },
    /// A live object forced off a page about to be retired.
    DyingPage { site: SiteId },
}

/// The DRAM space paired with a primary mature or large space.
fn dram_twin(primary: Location) -> Location {
    if primary == Location::LargePrimary {
        Location::LargeDram
    } else {
        Location::MatureDram
    }
}

/// The pages the `size` bytes at `addr` overlap.
fn pages(addr: Address, size: usize) -> std::ops::RangeInclusive<u64> {
    addr.page().0..=addr.add(size.max(1) - 1).page().0
}

impl KingsguardHeap {
    /// Returns `true` if the object at `addr` overlaps a page fenced for
    /// retirement this collection (and must therefore be evacuated by the
    /// trace, whatever its write bit says).
    fn on_dying_page(&self, addr: Address, size: usize) -> bool {
        !self.dying_pages.is_empty() && pages(addr, size).any(|page| self.dying_pages.contains_key(&page))
    }

    /// Records one forced evacuation: counts it and remembers the object's
    /// site on every dying page it overlapped, for the policy's
    /// retirement feedback.
    fn record_evacuation(&mut self, old_addr: Address, size: usize, site: SiteId) {
        self.stats.fault_evacuated_objects += 1;
        self.stats.fault_evacuated_bytes += size as u64;
        for page in pages(old_addr, size) {
            if let Some(sites) = self.dying_pages.get_mut(&page) {
                sites.push(site);
            }
        }
    }

    /// Young-generation collection entry point. For KG-W this is a nursery
    /// collection when the observer space has room for the worst-case
    /// survivor volume and an observer collection otherwise; for the other
    /// collectors it is always a nursery collection. A full-heap collection
    /// follows if the mature spaces exceed the heap budget.
    pub fn collect_young(&mut self) {
        self.emit_event(|| HeapEvent::Collect {
            kind: CollectKind::Young,
        });
        self.collect_young_impl();
    }

    /// [`Self::collect_young`] without the observer event: the entry used
    /// by allocation-pressure triggers, whose collections replay implicitly.
    pub(crate) fn collect_young_impl(&mut self) {
        self.enter_safepoint();
        let needed = self.nursery.used_bytes();
        let observer_full = self.observer.as_ref().is_some_and(|o| o.free_bytes() < needed);
        if observer_full {
            self.collect_observer_impl();
        } else {
            self.collect_nursery_impl();
        }
        if self.mature_used_bytes() > self.config.heap_budget_bytes {
            self.collect_full_impl();
        }
        // Kept asymmetry: after an escalated full collection, which did the
        // same, this samples, updates the peaks and feeds the policy twice.
        self.end_of_gc_feedback();
    }

    /// Ends every young and full collection: a composition sample, the peaks,
    /// and the adaptive policies' refresh point, which consumes the site feedback.
    fn end_of_gc_feedback(&mut self) {
        self.sample_composition();
        self.update_peaks();
        self.policy.on_gc_feedback(&self.stats);
        self.stats.site_feedback.clear();
        self.record_policy_adaptation();
    }

    /// Collects the nursery only.
    pub fn collect_nursery(&mut self) {
        self.emit_event(|| HeapEvent::Collect {
            kind: CollectKind::Nursery,
        });
        self.collect_nursery_impl();
    }

    pub(crate) fn collect_nursery_impl(&mut self) {
        let mut ctx = self.begin_collection(CollectKind::Nursery, "gc.nursery");
        self.stats.nursery.collections += 1;
        let collected = self.nursery.used_bytes() as u64;
        self.stats.nursery_collected_bytes += collected;
        let copied_before = self.stats.nursery.bytes_copied;
        self.span("gc.nursery.roots", |heap| heap.trace_roots(&mut ctx));
        self.span("gc.nursery.remset", |heap| heap.trace_remset(&mut ctx));
        self.span("gc.nursery.copy", |heap| heap.closure(&mut ctx));

        // Re-evaluate the Large Object Optimization: devote part of the
        // nursery to large objects only while the large-object allocation
        // rate outpaces the nursery allocation rate (Section 4.2.4).
        if self.constraints.large_object_optimization {
            self.loo_active = self.los_alloc_since_gc > self.nursery_alloc_since_gc;
        }
        self.reset_nursery(self.stats.nursery.bytes_copied - copied_before, collected);
        self.stats.work.gc_ops += collected / 64;
        self.end_collection(CollectKind::Nursery, "gc.pause.nursery_ns");
    }

    /// Collects the nursery and observer space together (KG-W only).
    ///
    /// # Panics
    ///
    /// Panics if called on a configuration without an observer space.
    pub fn collect_observer(&mut self) {
        self.emit_event(|| HeapEvent::Collect {
            kind: CollectKind::Observer,
        });
        self.collect_observer_impl();
    }

    pub(crate) fn collect_observer_impl(&mut self) {
        assert!(
            self.observer.is_some(),
            "observer collection requires an observer-space policy (KG-W)"
        );
        let mut ctx = self.begin_collection(CollectKind::Observer, "gc.observer");
        let phase = ctx.phase;
        self.stats.observer.collections += 1;
        let observer_used = self.observer.as_ref().expect("observer space").used_bytes() as u64;
        let nursery_used = self.nursery.used_bytes() as u64;
        self.stats.observer_collected_bytes += observer_used;
        self.stats.nursery_collected_bytes += nursery_used;
        let observer_copied_before = self.stats.observer.bytes_copied;

        // Pass 1: trace the nursery + observer region. Observer objects are
        // evacuated to the mature spaces immediately; live nursery objects
        // are recorded (and scanned in place) but copied only in pass 2, so
        // that the observer space is fully empty before survivors re-fill it.
        self.nursery_marked.clear();
        self.span("gc.observer.roots", |heap| heap.trace_roots(&mut ctx));
        let slots = self.span("gc.observer.remset", |heap| heap.trace_remset(&mut ctx));
        self.span("gc.observer.trace", |heap| heap.closure(&mut ctx));
        self.stats.observer_survived_bytes += self.stats.observer.bytes_copied - observer_copied_before;

        // Pass 2: the observer space is now fully evacuated; reset it and
        // copy the live nursery objects into it (pass 3, not the queue,
        // patches their fields).
        self.telemetry.span_enter("gc.observer.copy");
        self.observer.as_mut().expect("observer space").reset();
        let nursery_copied_before = self.stats.nursery.bytes_copied;
        for obj in std::mem::take(&mut ctx.nursery_live) {
            let size = obj.shape(&mut self.mem, phase).size();
            // Sized at twice the nursery, the observer space always fits.
            let (dst, _) = self.alloc_copy(Location::Observer, false, size);
            self.evacuate(&mut ctx, obj, dst, size, Cause::Promote { advised: None });
        }
        self.telemetry.span_exit();

        self.telemetry.span_enter("gc.observer.patch");
        // Pass 3: patch references that still point at the old nursery
        // copies: in evacuated/scanned objects, in roots and in remembered
        // slots. While doing so, rebuild the observer remembered set: any
        // slot that lives *outside* the nursery/observer region (an object
        // evacuated to a mature space this collection, or an old mature
        // object) and whose final referent stays *inside* the region must be
        // remembered for the next observer collection.
        let mut retained: Vec<Address> = Vec::new();
        for obj in std::mem::take(&mut ctx.scanned) {
            // Nursery objects were scanned in place; their final copy is the
            // forwarded address.
            let obj = self.final_copy(obj, phase);
            let outside_region =
                !matches!(self.locate(obj.address()), Location::Nursery | Location::Observer);
            let shape = obj.shape(&mut self.mem, phase);
            for slot in (0..shape.ref_slots as usize).map(|i| obj.ref_slot(i)) {
                if self.patch_slot(slot, phase) && outside_region {
                    retained.push(slot);
                }
            }
        }
        self.update_roots(|heap, obj| heap.final_copy(obj, phase));
        // Slots outside the region whose referent was just copied *into* the
        // observer space must stay remembered, otherwise the next observer
        // collection would miss them and leave stale pointers behind.
        for slot in slots {
            if self.mem.is_mapped(slot) && self.patch_slot(slot, phase) {
                retained.push(slot);
            }
        }
        for slot in retained {
            self.remset_observer.insert(slot);
        }
        self.telemetry.span_exit();

        self.remset_nursery.clear();
        // Kept asymmetry: unlike a nursery collection, this resets the
        // allocation counters without re-evaluating the LOO.
        self.reset_nursery(
            self.stats.nursery.bytes_copied - nursery_copied_before,
            nursery_used,
        );
        self.stats.work.gc_ops += (observer_used + nursery_used) / 64;
        self.end_collection(CollectKind::Observer, "gc.pause.observer_ns");
    }

    /// Full-heap collection.
    pub fn collect_full(&mut self) {
        self.emit_event(|| HeapEvent::Collect {
            kind: CollectKind::Full,
        });
        self.collect_full_impl();
    }

    pub(crate) fn collect_full_impl(&mut self) {
        let mut ctx = self.begin_collection(CollectKind::Full, "gc.major");
        self.stats.major.collections += 1;

        // Pump the PCM fault model while the heap sits at the safepoint:
        // pages that just became uncorrectable are fenced now, before
        // tracing, so the trace below evacuates every live object off them
        // and the sweep can never hand their lines out again.
        self.pump_faults_and_fence();

        self.telemetry.span_enter("gc.major.prepare");
        for space in std::iter::once(&mut self.mature_primary).chain(&mut self.mature_dram) {
            space.prepare_collection();
        }
        for space in std::iter::once(&mut self.los_primary).chain(&mut self.los_dram) {
            space.prepare_collection();
        }
        if self.constraints.metadata_marks_in_dram {
            self.metadata.clear_object_marks(&mut self.mem, ctx.phase);
        }
        self.telemetry.span_exit();

        self.marked.clear();
        self.span("gc.major.roots", |heap| heap.trace_roots(&mut ctx));
        self.span("gc.major.trace", |heap| heap.closure(&mut ctx));

        self.telemetry.span_enter("gc.major.sweep");
        for space in std::iter::once(&mut self.mature_primary).chain(&mut self.mature_dram) {
            space.sweep(&mut self.mem);
        }
        for space in std::iter::once(&mut self.los_primary).chain(&mut self.los_dram) {
            space.sweep(&mut self.mem);
        }
        self.nursery.reset();
        if let Some(observer) = self.observer.as_mut() {
            observer.reset();
        }
        self.remset_nursery.clear();
        self.remset_observer.clear();
        self.telemetry.span_exit();
        // Every live object left the dying pages during the trace; remap
        // them off PCM and tell the policy which sites were disturbed.
        self.finish_page_retirement();
        self.end_of_gc_feedback();
        self.end_collection(CollectKind::Full, "gc.pause.major_ns");
    }

    /// Stops the world for a collection of `kind` and opens its `span`.
    fn begin_collection(&mut self, kind: CollectKind, span: &'static str) -> Collection {
        self.enter_safepoint();
        self.run_checkpoint(CheckPoint::PreCollect(kind));
        self.telemetry.span_enter(span);
        let phase = match kind {
            CollectKind::Nursery => Phase::NurseryGc,
            CollectKind::Observer => Phase::ObserverGc,
            _ => Phase::MajorGc,
        };
        Collection {
            kind,
            phase,
            queue: Vec::new(),
            scanned: Vec::new(),
            nursery_live: Vec::new(),
        }
    }

    /// Closes the collection's span, records its pause under `pause` and
    /// runs the post-collection checkpoint.
    fn end_collection(&mut self, kind: CollectKind, pause: &'static str) {
        let pause_ns = self.telemetry.span_exit();
        self.telemetry.record("gc.pause_ns", pause_ns);
        self.telemetry.record(pause, pause_ns);
        if kind == CollectKind::Full {
            // Major collections are rare: a good cadence for wear-distribution
            // snapshots (and the heap is at a safepoint, so counts are complete).
            self.record_wear_snapshot();
        }
        self.run_checkpoint(CheckPoint::PostCollect(kind));
    }

    /// Runs `step` inside the telemetry span `name`.
    fn span<R>(&mut self, name: &'static str, step: impl FnOnce(&mut Self) -> R) -> R {
        self.telemetry.span_enter(name);
        let result = step(self);
        self.telemetry.span_exit();
        result
    }

    /// Ends a young collection: the nursery is empty again, and its
    /// survival feeds the moving average.
    fn reset_nursery(&mut self, survived: u64, collected: u64) {
        self.stats.nursery_survived_bytes += survived;
        // Nothing survives an empty nursery: its rate is 0.
        let rate = survived as f64 / collected.max(1) as f64;
        self.survival_estimate = 0.5 * self.survival_estimate + 0.5 * rate;
        self.los_alloc_since_gc = 0;
        self.nursery_alloc_since_gc = 0;
        self.nursery.reset();
    }

    /// Applies `update` to every root, in handle order, in place.
    fn update_roots(&mut self, mut update: impl FnMut(&mut Self, ObjectRef) -> ObjectRef) {
        let mut roots = std::mem::take(&mut self.roots);
        roots.update_roots(|obj| update(self, obj));
        self.roots = roots;
    }

    fn trace_roots(&mut self, ctx: &mut Collection) {
        self.update_roots(|heap, obj| heap.trace_object(ctx, obj));
    }

    /// Drains the collection's remembered set (the nursery's or the
    /// observer's) and traces its mapped slots in ascending address order.
    /// Returns the slots, which the observer collection revisits in pass 3.
    fn trace_remset(&mut self, ctx: &mut Collection) -> Vec<Address> {
        let slots = match ctx.kind {
            CollectKind::Nursery => self.remset_nursery.drain(),
            _ => self.remset_observer.drain(),
        };
        for &slot in &slots {
            if self.mem.is_mapped(slot) {
                self.stats.work.gc_ops += 1;
                self.trace_slot(ctx, slot);
            }
        }
        slots
    }

    /// The transitive closure: scans the reference fields of every queued
    /// object until the queue is empty.
    fn closure(&mut self, ctx: &mut Collection) {
        while let Some(obj) = ctx.queue.pop() {
            let shape = obj.shape(&mut self.mem, ctx.phase);
            for i in 0..shape.ref_slots as usize {
                self.trace_slot(ctx, obj.ref_slot(i));
            }
            self.stats.work.gc_ops += 1 + shape.ref_slots as u64;
            if ctx.kind == CollectKind::Observer {
                ctx.scanned.push(obj);
            }
        }
    }

    /// Traces the reference in `slot`, if any, and writes the slot back
    /// only if its referent moved.
    fn trace_slot(&mut self, ctx: &mut Collection, slot: Address) {
        let value = ObjectRef::from_address(Address::new(self.mem.read_u64(slot, ctx.phase)));
        if !value.is_null() {
            let new_value = self.trace_object(ctx, value);
            if new_value != value {
                self.mem.write_u64(slot, new_value.address().raw(), ctx.phase);
            }
        }
    }

    /// Traces one non-null reference and returns where its object lives
    /// now, deciding per source space as the module docs' table says.
    /// Inlined: most references lie outside the condemned spaces.
    #[inline]
    fn trace_object(&mut self, ctx: &mut Collection, obj: ObjectRef) -> ObjectRef {
        let (kind, phase) = (ctx.kind, ctx.phase);
        let from = self.locate(obj.address());
        let young = matches!(from, Location::Nursery | Location::Observer);
        let condemned = match kind {
            CollectKind::Nursery => from == Location::Nursery,
            CollectKind::Observer => young,
            _ => from != Location::Other,
        };
        if !condemned {
            return obj;
        }
        if kind == CollectKind::Observer && from == Location::Nursery {
            if self.nursery_marked.insert(obj.address()) {
                ctx.nursery_live.push(obj);
                ctx.queue.push(obj);
            }
            return obj;
        }
        // Nothing leaves the DRAM large space: nothing there is forwarded.
        if from != Location::LargeDram && obj.is_forwarded(&mut self.mem, phase) {
            return obj.forwarding(&mut self.mem, phase);
        }
        if young {
            let shape = obj.shape(&mut self.mem, phase);
            let (dst, cause) = self.young_destination(ctx, obj, shape);
            return self.evacuate(ctx, obj, dst, shape.size(), cause);
        }
        if !self.marked.insert(obj.address()) {
            return obj;
        }
        let size = match from {
            Location::MaturePrimary | Location::LargePrimary => {
                let large = from == Location::LargePrimary;
                let (written, size) = if large {
                    let written = obj.is_written(&mut self.mem, phase);
                    let size = self
                        .los_primary
                        .size_of(obj.address())
                        .unwrap_or_else(|| obj.size(&mut self.mem, phase));
                    (written, size)
                } else {
                    let size = obj.shape(&mut self.mem, phase).size();
                    (obj.is_written(&mut self.mem, phase), size)
                };
                // The topology places both primary spaces on one memory and
                // gives both a DRAM twin, or neither.
                let topology = self.constraints.topology;
                if self.constraints.rescue_written_objects
                    && written
                    && topology.mature == MemoryKind::Pcm
                    && topology.dram_mature
                {
                    // A written object was detected in PCM: move it back to
                    // DRAM and reset its write bit. Kept asymmetry: a large
                    // rescue reports no site to the retirement feedback.
                    let site = if large { SiteId::UNKNOWN } else { self.site_of(obj) };
                    let (dst, _) = self.alloc_copy(dram_twin(from), false, size);
                    return self.evacuate(ctx, obj, dst, size, Cause::Rescue { site });
                }
                if self.on_dying_page(obj.address(), size) {
                    // Forced evacuation off a dying page: the object may be
                    // unwritten (or the collector may not rescue at all —
                    // KG-N, the PCM-only baseline), but its page is about
                    // to be retired. Prefer DRAM when the topology has it;
                    // otherwise a fresh PCM line or run is safe, since the
                    // fence guarantees the copy cannot land back on the page.
                    let site = self.site_of(obj);
                    let (dst, _) = self.alloc_copy(from, true, size);
                    return self.evacuate(ctx, obj, dst, size, Cause::DyingPage { site });
                }
                size
            }
            Location::MatureDram => {
                let size = obj.shape(&mut self.mem, phase).size();
                let written = obj.is_written(&mut self.mem, phase);
                // The policy decides whether an unwritten DRAM object may be
                // demoted: KG-A pins advised-hot sites in DRAM even across
                // quiet periods — demoting them would only churn the next
                // rescue — while KG-W and KG-D demote every unwritten object
                // (for KG-D, demotion is the signal that un-learns stale
                // advice).
                let site = self.site_of(obj);
                if self.constraints.rescue_written_objects
                    && !written
                    && self.policy.demote_unwritten_dram(site)
                {
                    // Unwritten DRAM mature object: demote to PCM to exploit
                    // PCM capacity (Section 4.2.3).
                    let (dst, _) = self.alloc_copy(Location::MaturePrimary, false, size);
                    return self.evacuate(ctx, obj, dst, size, Cause::Demotion { site });
                }
                size
            }
            // A large space marks whole objects, whatever their size.
            _ => 0,
        };
        self.mark_live(obj, size, phase);
        ctx.queue.push(obj);
        obj
    }

    /// Chooses where a live young object goes and what the copy counts as.
    fn young_destination(
        &mut self,
        ctx: &Collection,
        obj: ObjectRef,
        shape: ObjectShape,
    ) -> (Address, Cause) {
        let written = obj.is_written(&mut self.mem, ctx.phase);
        let (size, large) = (shape.size(), shape.is_large());
        let to = if large {
            Location::LargePrimary
        } else {
            Location::MaturePrimary
        };
        if ctx.kind == CollectKind::Observer {
            // The policy tenures an observer survivor into DRAM (by default
            // when its write bit is set) or PCM; a large one goes straight to
            // the PCM large space without consulting it (Section 4.2.4).
            let prefer_dram = !large && self.policy.observer_tenure_to_dram(written);
            let (dst, to_dram) = self.alloc_copy(to, prefer_dram, size);
            return (dst, Cause::Tenure { to_dram });
        }
        if ctx.kind == CollectKind::Nursery {
            // KG-W routes survivors through the observer space: small objects
            // always, a large one the LOO allocated in the nursery if it fits.
            if let Some(dst) = self.alloc_in(Location::Observer, size) {
                return (dst, Cause::Promote { advised: None });
            }
        }
        // The per-site policies pretenure young survivors by site advice: a
        // full collection asks about every one, a nursery collection about
        // the small ones only. The full collection also keeps written
        // survivors in DRAM; the nursery collection consults the policy only.
        let placement = if large && ctx.kind == CollectKind::Nursery {
            SurvivorPlacement::Mature
        } else {
            let site = self.site_of(obj);
            self.policy.survivor_placement(site, written)
        };
        let advised_dram = placement == SurvivorPlacement::AdvisedDram;
        let prefer_dram = !large && (advised_dram || (ctx.kind == CollectKind::Full && written));
        let (dst, in_dram) = self.alloc_copy(to, prefer_dram, size);
        // Advice counts where a small object lands: in DRAM only if advised
        // there, in PCM (a DRAM overflow included) if advised at all.
        let advised = if large || placement == SurvivorPlacement::Mature {
            None
        } else if in_dram {
            advised_dram.then_some(MemoryKind::Dram)
        } else {
            Some(MemoryKind::Pcm)
        };
        (dst, Cause::Promote { advised })
    }

    /// Allocates room for a `size`-byte copy in the space `to`; `None` if
    /// the space is absent or full.
    fn alloc_in(&mut self, to: Location, size: usize) -> Option<Address> {
        let mem = &mut self.mem;
        match to {
            Location::Observer => self.observer.as_mut()?.alloc_for_copy(mem, size),
            Location::MaturePrimary => self.mature_primary.alloc_for_copy(mem, size),
            Location::MatureDram => self.mature_dram.as_mut()?.alloc_for_copy(mem, size),
            Location::LargePrimary => self.los_primary.alloc_raw(mem, size),
            Location::LargeDram => self.los_dram.as_mut()?.alloc_raw(mem, size),
            Location::Nursery | Location::Other => unreachable!("no copy goes to {to:?}"),
        }
    }

    /// Allocates room for a `size`-byte copy in `to`, or first in its DRAM
    /// twin when `prefer_dram` and the copy fits there; returns the address
    /// and whether it is in the twin. Panics if `to` is absent or full.
    fn alloc_copy(&mut self, to: Location, prefer_dram: bool, size: usize) -> (Address, bool) {
        if prefer_dram {
            if let Some(dst) = self.alloc_in(dram_twin(to), size) {
                return (dst, true);
            }
        }
        let dst = self
            .alloc_in(to, size)
            .unwrap_or_else(|| panic!("{to:?} space exhausted copying {size} bytes during a collection"));
        (dst, false)
    }

    /// Copies `obj` to `dst`, the only place the collector copies an
    /// object, and returns the copy, queued for scanning.
    fn evacuate(
        &mut self,
        ctx: &mut Collection,
        obj: ObjectRef,
        dst: Address,
        size: usize,
        cause: Cause,
    ) -> ObjectRef {
        let (kind, phase) = (ctx.kind, ctx.phase);
        let old = obj.address();
        let from = self.locate(old);
        // A nursery survivor is recorded with the site profiler.
        if let (Location::Nursery, Some(profiler)) = (from, self.profiler.as_mut()) {
            let site = SiteId(obj.site(&self.mem));
            if !site.is_unknown() {
                profiler.record_nursery_survivor(site, size as u64);
            }
        }
        self.mem.copy(old, dst, size, phase);
        let copy = ObjectRef::from_address(dst);
        if let Cause::Rescue { .. } = cause {
            copy.clear_written(&mut self.mem, phase);
        }
        obj.set_forwarding(&mut self.mem, copy, phase);
        self.stats.object_moved(old, dst);
        if kind == CollectKind::Full {
            self.mark_live(copy, size, phase);
        }
        if let Cause::Rescue { site } | Cause::DyingPage { site } = cause {
            if self.on_dying_page(old, size) {
                self.record_evacuation(old, size, site);
            }
        }

        let stats = &mut self.stats;
        let bytes = size as u64;
        let counters = match (kind, cause) {
            (CollectKind::Full, _) => &mut stats.major,
            (_, Cause::Tenure { .. }) => &mut stats.observer,
            _ => &mut stats.nursery,
        };
        counters.bytes_copied += bytes;
        counters.objects_copied += 1;
        // Kept asymmetry: a young collection charges the copy as GC work, a
        // full collection does not.
        if kind != CollectKind::Full {
            stats.work.gc_ops += 2 + bytes / 16;
        }
        match cause {
            Cause::Promote {
                advised: Some(MemoryKind::Dram),
            } => {
                stats.advised_to_dram_objects += 1;
                stats.advised_to_dram_bytes += bytes;
            }
            Cause::Promote {
                advised: Some(MemoryKind::Pcm),
            } => {
                stats.advised_to_pcm_objects += 1;
                stats.advised_to_pcm_bytes += bytes;
            }
            Cause::Tenure { to_dram: true } => {
                stats.observer_to_dram_objects += 1;
                stats.observer_to_dram_bytes += bytes;
            }
            Cause::Tenure { to_dram: false } => {
                stats.observer_to_pcm_objects += 1;
                stats.observer_to_pcm_bytes += bytes;
            }
            Cause::Rescue { .. } if from == Location::LargePrimary => stats.large_pcm_to_dram_moves += 1,
            Cause::Rescue { site } => stats.record_rescue(site),
            Cause::Demotion { site } => stats.record_demotion(site),
            Cause::Promote { advised: None } | Cause::DyingPage { .. } => {}
        }
        ctx.queue.push(copy);
        copy
    }

    /// Pass 3 of an observer collection: `obj` itself, or the copy pass 2
    /// made of it if it is a nursery object.
    fn final_copy(&mut self, obj: ObjectRef, phase: Phase) -> ObjectRef {
        if self.locate(obj.address()) == Location::Nursery && obj.is_forwarded(&mut self.mem, phase) {
            obj.forwarding(&mut self.mem, phase)
        } else {
            obj
        }
    }

    /// Pass 3 of an observer collection: redirects the reference in `slot`
    /// to its final copy; `true` if it now refers into the observer space.
    fn patch_slot(&mut self, slot: Address, phase: Phase) -> bool {
        let value = ObjectRef::from_address(Address::new(self.mem.read_u64(slot, phase)));
        if value.is_null() {
            return false;
        }
        let current = self.final_copy(value, phase);
        if current != value {
            self.mem.write_u64(slot, current.address().raw(), phase);
        }
        self.locate(current.address()) == Location::Observer
    }

    /// Marks a live object of a full collection — reached in place, or just
    /// copied — so that the post-trace sweep does not reclaim it.
    fn mark_live(&mut self, obj: ObjectRef, size: usize, phase: Phase) {
        match self.locate(obj.address()) {
            Location::MaturePrimary => {
                self.mature_primary
                    .mark_lines(&mut self.mem, obj.address(), size, phase);
                self.account_object_mark(obj, self.mature_primary.kind(), phase);
            }
            Location::MatureDram => {
                let space = self
                    .mature_dram
                    .as_mut()
                    .expect("location implies DRAM mature space");
                space.mark_lines(&mut self.mem, obj.address(), size, phase);
                obj.set_marked(&mut self.mem, true, phase);
            }
            Location::LargePrimary => {
                self.los_primary.mark(&mut self.mem, obj, phase);
            }
            Location::LargeDram => {
                self.los_dram
                    .as_mut()
                    .expect("location implies DRAM large space")
                    .mark(&mut self.mem, obj, phase);
            }
            _ => {}
        }
    }

    /// Records the object-mark store, in the DRAM mark table when MDO applies
    /// (PCM object larger than 16 bytes) and in the object header otherwise.
    fn account_object_mark(&mut self, obj: ObjectRef, space_kind: MemoryKind, phase: Phase) {
        if self.constraints.metadata_marks_in_dram
            && space_kind == MemoryKind::Pcm
            && !obj.is_mdo_small(&mut self.mem, phase)
        {
            self.metadata.set_object_mark(&mut self.mem, obj, phase);
        } else {
            obj.set_marked(&mut self.mem, true, phase);
        }
    }

    pub(crate) fn sample_composition(&mut self) {
        let sample = CompositionSample {
            allocated_bytes: self.stats.bytes_allocated,
            pcm_bytes: self.pcm_heap_bytes(),
            dram_bytes: self.dram_heap_bytes(),
        };
        self.stats.sample_composition(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeapConfig;
    use crate::mutator::MutatorContext;
    use advice::{AdviceTable, Placement};
    use hybrid_mem::MemoryConfig;

    /// A fresh heap and its context 0.
    fn heap(config: HeapConfig) -> (KingsguardHeap, MutatorContext) {
        let mut heap = KingsguardHeap::new(config, MemoryConfig::architecture_independent());
        let m = heap.default_mutator().unwrap();
        (heap, m)
    }

    #[test]
    fn nursery_collection_preserves_live_data_and_drops_garbage() {
        let (mut h, mut m) = heap(HeapConfig::kg_n());
        let live = m.alloc(&mut h, ObjectShape::new(1, 64), 1);
        let dead = m.alloc(&mut h, ObjectShape::new(0, 64), 2);
        m.write_prim(&mut h, live, 0, 8);
        h.release(dead);
        let live_before = h.resolve(live);
        h.collect_nursery();
        let live_after = h.resolve(live);
        assert_ne!(live_before, live_after, "survivor must have been copied");
        assert_eq!(h.locate(live_after.address()), Location::MaturePrimary);
        assert_eq!(h.stats().nursery.collections, 1);
        assert!(h.stats().nursery_survival() > 0.0);
        assert!(h.stats().nursery_survival() < 1.0);
        assert_eq!(h.nursery.used_bytes(), 0);
    }

    #[test]
    fn nursery_collection_follows_references_from_roots() {
        let (mut h, mut m) = heap(HeapConfig::kg_n());
        let parent = m.alloc(&mut h, ObjectShape::new(2, 0), 1);
        let child = m.alloc(&mut h, ObjectShape::new(0, 24), 2);
        m.write_ref(&mut h, parent, 0, Some(child));
        h.release(child); // only reachable through parent now
        h.collect_nursery();
        let parent_obj = h.resolve(parent);
        let child_obj = parent_obj.read_ref(&mut h.mem, 0, Phase::Mutator);
        assert!(!child_obj.is_null());
        assert_eq!(h.locate(child_obj.address()), Location::MaturePrimary);
        assert_eq!(
            child_obj.shape(&mut h.mem, Phase::Mutator),
            ObjectShape::new(0, 24)
        );
    }

    #[test]
    fn old_to_young_pointers_survive_via_remset() {
        let (mut h, mut m) = heap(HeapConfig::kg_n());
        let parent = m.alloc(&mut h, ObjectShape::new(1, 0), 1);
        h.collect_nursery(); // parent is now mature
        let child = m.alloc(&mut h, ObjectShape::new(0, 32), 2);
        m.write_ref(&mut h, parent, 0, Some(child));
        h.release(child); // only reachable through the mature parent
        h.collect_nursery();
        let parent_obj = h.resolve(parent);
        let child_obj = parent_obj.read_ref(&mut h.mem, 0, Phase::Mutator);
        assert!(!child_obj.is_null());
        assert_eq!(h.locate(child_obj.address()), Location::MaturePrimary);
    }

    #[test]
    fn kgw_nursery_survivors_go_to_the_observer_space() {
        let (mut h, mut m) = heap(HeapConfig::kg_w());
        let handle = m.alloc(&mut h, ObjectShape::new(0, 128), 1);
        h.collect_nursery();
        assert_eq!(h.locate(h.resolve(handle).address()), Location::Observer);
    }

    #[test]
    fn observer_collection_separates_written_and_unwritten_objects() {
        let (mut h, mut m) = heap(HeapConfig::kg_w());
        let hot = m.alloc(&mut h, ObjectShape::new(0, 256), 1);
        let cold = m.alloc(&mut h, ObjectShape::new(0, 256), 2);
        h.collect_nursery();
        assert_eq!(h.locate(h.resolve(hot).address()), Location::Observer);
        // Write to the hot object while it is observed.
        m.write_prim(&mut h, hot, 0, 16);
        h.collect_observer();
        assert_eq!(
            h.locate(h.resolve(hot).address()),
            Location::MatureDram,
            "written object stays in DRAM"
        );
        assert_eq!(
            h.locate(h.resolve(cold).address()),
            Location::MaturePrimary,
            "unwritten object moves to PCM"
        );
        assert!(h.stats().observer_to_dram_objects >= 1);
        assert!(h.stats().observer_to_pcm_objects >= 1);
    }

    #[test]
    fn observer_collection_recycles_nursery_survivors_into_observer() {
        let (mut h, mut m) = heap(HeapConfig::kg_w());
        let veteran = m.alloc(&mut h, ObjectShape::new(0, 64), 1);
        h.collect_nursery(); // veteran now in observer
        let newcomer = m.alloc(&mut h, ObjectShape::new(0, 64), 2);
        h.collect_observer();
        assert_ne!(h.locate(h.resolve(veteran).address()), Location::Observer);
        assert_eq!(h.locate(h.resolve(newcomer).address()), Location::Observer);
    }

    #[test]
    fn major_collection_rescues_written_pcm_objects_to_dram() {
        let (mut h, mut m) = heap(HeapConfig::kg_w());
        let handle = m.alloc(&mut h, ObjectShape::new(0, 128), 1);
        h.collect_nursery();
        h.collect_observer(); // unwritten => lands in mature PCM
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MaturePrimary);
        m.write_prim(&mut h, handle, 0, 8); // write it while it lives in PCM
        h.collect_full();
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MatureDram);
        assert_eq!(h.stats().pcm_to_dram_rescues, 1);
        // Its write bit was reset when it was rescued.
        let obj = h.resolve(handle);
        assert!(!obj.is_written(&mut h.mem, Phase::Mutator));
    }

    #[test]
    fn major_collection_demotes_unwritten_dram_objects_to_pcm() {
        let (mut h, mut m) = heap(HeapConfig::kg_w());
        let handle = m.alloc(&mut h, ObjectShape::new(0, 128), 1);
        h.collect_nursery();
        m.write_prim(&mut h, handle, 0, 8); // written while observed -> mature DRAM
        h.collect_observer();
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MatureDram);
        // It is not written again afterwards, so the next major collection
        // demotes it to PCM to exploit PCM capacity... but its write bit is
        // still set from the observer epoch, so it stays. Clear by rescue
        // cycle: first major keeps it (written), write bit persists until the
        // object is rescued. Verify the "unwritten" path with a fresh object:
        let cold = m.alloc(&mut h, ObjectShape::new(0, 128), 2);
        h.collect_nursery();
        m.write_prim(&mut h, cold, 0, 8);
        h.collect_observer(); // cold goes to DRAM (written while observed)
        let cold_loc_before = h.locate(h.resolve(cold).address());
        assert_eq!(cold_loc_before, Location::MatureDram);
        // Rescue resets write bits only for PCM->DRAM moves; for DRAM objects
        // the write bit is what keeps them in DRAM. Simulate ageing by
        // clearing the bit directly (as a rescued object would have it).
        let cold_obj = h.resolve(cold);
        cold_obj.clear_written(&mut h.mem, Phase::Mutator);
        h.collect_full();
        assert_eq!(h.locate(h.resolve(cold).address()), Location::MaturePrimary);
        assert!(h.stats().dram_to_pcm_demotions >= 1);
    }

    #[test]
    fn major_collection_reclaims_unreachable_mature_objects() {
        let (mut h, mut m) = heap(HeapConfig::kg_n());
        let keep = m.alloc(&mut h, ObjectShape::new(0, 256), 1);
        let toss = m.alloc(&mut h, ObjectShape::new(0, 256), 2);
        h.collect_nursery(); // both now mature
        let used_before = h.mature_primary.used_bytes();
        h.release(toss);
        h.collect_full();
        let used_after = h.mature_primary.used_bytes();
        assert!(used_after <= used_before);
        assert!(!h.resolve(keep).is_null());
        assert_eq!(h.stats().major.collections, 1);
    }

    #[test]
    fn written_large_pcm_objects_move_to_the_dram_large_space() {
        let (mut h, mut m) = heap(HeapConfig::kg_w_no_loo());
        let big = m.alloc(&mut h, ObjectShape::primitive(32 * 1024), 1);
        assert_eq!(h.locate(h.resolve(big).address()), Location::LargePrimary);
        m.write_prim(&mut h, big, 100, 8);
        h.collect_full();
        assert_eq!(h.locate(h.resolve(big).address()), Location::LargeDram);
        assert_eq!(h.stats().large_pcm_to_dram_moves, 1);
        // Once in DRAM it never moves back, even after another collection.
        h.collect_full();
        assert_eq!(h.locate(h.resolve(big).address()), Location::LargeDram);
    }

    #[test]
    fn collect_young_escalates_to_observer_collection_when_observer_fills() {
        let (mut h, mut m) = heap(HeapConfig::kg_w());
        // Allocate enough surviving data to fill the observer space (all
        // objects stay rooted so everything survives).
        let object_bytes = 1024;
        let objects = (h.config().observer_bytes * 2) / object_bytes;
        for _ in 0..objects {
            m.alloc(&mut h, ObjectShape::new(0, object_bytes as u32 - 40), 1);
        }
        assert!(
            h.stats().observer.collections > 0,
            "observer collections must have happened"
        );
        assert!(h.stats().nursery.collections > 0);
    }

    #[test]
    fn composition_samples_are_recorded_per_collection() {
        let (mut h, mut m) = heap(HeapConfig::kg_w());
        for _ in 0..200 {
            let handle = m.alloc(&mut h, ObjectShape::new(1, 200), 1);
            h.release(handle);
        }
        h.collect_full();
        assert!(!h.stats().composition.is_empty());
        let last = h.stats().composition.last().unwrap();
        assert!(last.allocated_bytes > 0);
    }

    #[test]
    fn gen_immix_dram_only_never_touches_pcm() {
        let (mut h, mut m) = heap(HeapConfig::gen_immix_dram());
        for i in 0..500 {
            let handle = m.alloc(&mut h, ObjectShape::new(1, 100), i as u16);
            m.write_prim(&mut h, handle, 0, 8);
            if i % 2 == 0 {
                h.release(handle);
            }
        }
        h.collect_full();
        let report = h.finish();
        assert_eq!(report.memory.writes(hybrid_mem::MemoryKind::Pcm), 0);
        assert!(report.memory.writes(hybrid_mem::MemoryKind::Dram) > 0);
    }

    #[test]
    fn kga_pretenures_by_site_advice() {
        let table = AdviceTable::from_entries(
            [
                (SiteId(1), Placement::DramMature),
                (SiteId(2), Placement::PcmMature),
            ],
            Placement::PcmMature,
        );
        let (mut h, mut m) = heap(HeapConfig::kg_a(table));
        let hot = m.alloc_site(&mut h, ObjectShape::new(0, 128), 1, SiteId(1));
        let cold = m.alloc_site(&mut h, ObjectShape::new(0, 128), 2, SiteId(2));
        let untagged = m.alloc(&mut h, ObjectShape::new(0, 128), 3);
        h.collect_nursery();
        assert_eq!(
            h.locate(h.resolve(hot).address()),
            Location::MatureDram,
            "hot site pretenured to DRAM"
        );
        assert_eq!(
            h.locate(h.resolve(cold).address()),
            Location::MaturePrimary,
            "cold site pretenured to PCM"
        );
        assert_eq!(
            h.locate(h.resolve(untagged).address()),
            Location::MaturePrimary,
            "unknown site defaults to PCM"
        );
        assert_eq!(h.stats().advised_to_dram_objects, 1);
        assert_eq!(h.stats().advised_to_pcm_objects, 2);
        assert_eq!(h.stats().observer.collections, 0, "KG-A has no observer space");
    }

    #[test]
    fn kga_rescues_mispredicted_written_pcm_objects() {
        let (mut h, mut m) = heap(HeapConfig::kg_a(AdviceTable::all_cold()));
        let handle = m.alloc_site(&mut h, ObjectShape::new(0, 128), 1, SiteId(4));
        h.collect_nursery();
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MaturePrimary);
        // The profile said cold, but the object is written in PCM: the KG-W
        // style rescue of the next full collection must save it.
        m.write_prim(&mut h, handle, 0, 8);
        h.collect_full();
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MatureDram);
        assert_eq!(h.stats().pcm_to_dram_rescues, 1);
    }

    #[test]
    fn kga_advised_hot_sites_stay_in_dram_across_quiet_major_gcs() {
        let table = AdviceTable::from_entries([(SiteId(1), Placement::DramMature)], Placement::PcmMature);
        let (mut h, mut m) = heap(HeapConfig::kg_a(table));
        let hot = m.alloc_site(&mut h, ObjectShape::new(0, 128), 1, SiteId(1));
        h.collect_nursery();
        assert_eq!(h.locate(h.resolve(hot).address()), Location::MatureDram);
        // Never written, but the advice pins it: no demotion churn.
        h.collect_full();
        h.collect_full();
        assert_eq!(h.locate(h.resolve(hot).address()), Location::MatureDram);
        assert_eq!(h.stats().dram_to_pcm_demotions, 0);
    }

    #[test]
    fn kga_demotes_rescued_objects_once_their_write_burst_ends() {
        let (mut h, mut m) = heap(HeapConfig::kg_a(AdviceTable::all_cold()));
        let handle = m.alloc_site(&mut h, ObjectShape::new(0, 128), 1, SiteId(4));
        h.collect_nursery();
        m.write_prim(&mut h, handle, 0, 8);
        h.collect_full(); // rescued to DRAM, write bit reset
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MatureDram);
        h.collect_full(); // quiet since rescue: demoted back to PCM
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MaturePrimary);
        assert_eq!(h.stats().dram_to_pcm_demotions, 1);
    }

    #[test]
    fn kga_pretenures_hot_large_sites_into_the_dram_large_space() {
        let table = AdviceTable::from_entries([(SiteId(8), Placement::DramMature)], Placement::PcmMature);
        let (mut h, mut m) = heap(HeapConfig::kg_a(table));
        let hot_large = m.alloc_site(&mut h, ObjectShape::primitive(32 * 1024), 1, SiteId(8));
        let cold_large = m.alloc_site(&mut h, ObjectShape::primitive(32 * 1024), 2, SiteId(9));
        assert_eq!(h.locate(h.resolve(hot_large).address()), Location::LargeDram);
        assert_eq!(h.locate(h.resolve(cold_large).address()), Location::LargePrimary);
    }

    #[test]
    fn kga_all_cold_advice_behaves_like_kg_n_for_placement() {
        let (mut h, mut m) = heap(HeapConfig::kg_a(AdviceTable::all_cold()));
        for i in 0..200 {
            let handle = m.alloc_site(&mut h, ObjectShape::new(1, 96), 1, SiteId(1 + (i % 7)));
            if i % 3 != 0 {
                h.release(handle);
            }
        }
        h.collect_young();
        h.collect_full();
        assert_eq!(h.stats().advised_to_dram_objects, 0);
        assert_eq!(
            h.dram_heap_bytes(),
            0,
            "no mature object may live in DRAM under all-cold advice"
        );
    }

    #[test]
    fn page_retirement_evacuates_live_objects_without_loss() {
        use hybrid_mem::{Endurance, FaultConfig};
        // Wear-accelerated to absurdity: one counted write exceeds any line
        // budget, and a single failed line makes its page uncorrectable.
        let fault = FaultConfig {
            ecc_correctable_lines: 0,
            ..FaultConfig::new(0xFA11, Endurance::Mid30M).with_wear_multiplier(u64::MAX / 4)
        };
        let mut h = KingsguardHeap::new(
            HeapConfig::kg_n(),
            MemoryConfig::architecture_independent().with_faults(fault),
        );
        let mut m = h.default_mutator().unwrap();
        let mut handles = Vec::new();
        for i in 0..64u16 {
            handles.push(m.alloc(&mut h, ObjectShape::new(0, 128), i));
        }
        let big = m.alloc(&mut h, ObjectShape::primitive(32 * 1024), 99);
        h.collect_young(); // small objects now sit in mature PCM
        for &handle in &handles {
            m.write_prim(&mut h, handle, 0, 64);
        }
        m.write_prim(&mut h, big, 0, 64);
        // Push every dirty line to the device so the pump sees the writes.
        h.with_synced_memory(|mem| mem.flush_caches());
        h.collect_full();
        assert!(h.stats().fault_pages_retired > 0, "pages must have retired");
        assert!(
            h.stats().fault_evacuated_objects > 0,
            "live objects must have been evacuated off the dying pages"
        );
        // The evacuation invariant: no live object was lost or corrupted.
        for &handle in &handles {
            let obj = h.resolve(handle);
            assert!(!obj.is_null());
            assert_eq!(obj.shape(&mut h.mem, Phase::Mutator), ObjectShape::new(0, 128));
        }
        assert_eq!(
            h.resolve(big).shape(&mut h.mem, Phase::Mutator),
            ObjectShape::primitive(32 * 1024)
        );
        let report = h.finish();
        assert!(report.memory.retired_pcm_pages > 0);
        assert!(report.memory.failed_pcm_lines > 0);
        assert!(report.memory.degraded_pcm_bytes > 0);
    }

    #[test]
    fn fault_free_runs_report_no_fault_statistics() {
        let (mut h, mut m) = heap(HeapConfig::kg_w());
        for i in 0..100u16 {
            let handle = m.alloc(&mut h, ObjectShape::new(0, 256), i);
            m.write_prim(&mut h, handle, 0, 32);
        }
        h.collect_full();
        assert_eq!(h.stats().fault_pages_retired, 0);
        assert_eq!(h.stats().fault_evacuated_objects, 0);
        let report = h.finish();
        assert_eq!(report.memory.failed_pcm_lines, 0);
        assert_eq!(report.memory.retired_pcm_pages, 0);
    }

    #[test]
    fn kg_n_keeps_nursery_writes_out_of_pcm() {
        let (mut h, mut m) = heap(HeapConfig::kg_n());
        for _ in 0..200 {
            let handle = m.alloc(&mut h, ObjectShape::new(0, 256), 1);
            m.write_prim(&mut h, handle, 0, 64);
            h.release(handle);
        }
        let report = h.finish();
        let pcm_mutator = report
            .memory
            .phase_writes(hybrid_mem::MemoryKind::Pcm)
            .get(Phase::Mutator);
        let dram_mutator = report
            .memory
            .phase_writes(hybrid_mem::MemoryKind::Dram)
            .get(Phase::Mutator);
        assert_eq!(
            pcm_mutator, 0,
            "mutator writes to dying nursery objects must stay in DRAM"
        );
        assert!(dram_mutator > 0);
    }
}
