//! Collection algorithms: nursery, observer and full-heap collections.
//!
//! * **Nursery collection** — copies live nursery objects to the observer
//!   space (KG-W) or the mature space (GenImmix / KG-N), driven by roots and
//!   the nursery remembered set.
//! * **Observer collection** (KG-W, Section 4.2.1) — collects the nursery
//!   and observer space together, in isolation of the mature spaces, using
//!   the observer remembered set. Live observer objects move to the DRAM
//!   mature space if their write bit is set and to the PCM mature space
//!   otherwise; live nursery objects move into the freshly emptied observer
//!   space.
//! * **Full-heap collection** — traces the whole heap. KG-W additionally
//!   moves unwritten DRAM mature objects to PCM (to exploit PCM capacity),
//!   rescues written PCM mature objects back to DRAM (resetting their write
//!   bit), and moves written large PCM objects to the DRAM large space.

use advice::SiteId;
use hybrid_mem::{Address, MemoryKind, Phase};
use kingsguard_heap::object::{ObjectRef, ObjectShape};
use kingsguard_heap::Handle;

use crate::observer::{CheckPoint, CollectKind, HeapEvent};
use crate::policy::SurvivorPlacement;
use crate::runtime::{KingsguardHeap, Location};
use crate::stats::CompositionSample;

impl KingsguardHeap {
    /// Returns `true` if the object at `addr` overlaps a page fenced for
    /// retirement this collection (and must therefore be evacuated by the
    /// trace, whatever its write bit says).
    fn on_dying_page(&self, addr: Address, size: usize) -> bool {
        if self.dying_pages.is_empty() {
            return false;
        }
        let first = addr.page().0;
        let last = addr.add(size.max(1) - 1).page().0;
        (first..=last).any(|page| self.dying_pages.contains_key(&page))
    }

    /// Records one forced evacuation: counts it and remembers the object's
    /// site on every dying page it overlapped, for the policy's
    /// retirement feedback.
    fn record_evacuation(&mut self, old_addr: Address, size: usize, site: SiteId) {
        self.stats.fault_evacuated_objects += 1;
        self.stats.fault_evacuated_bytes += size as u64;
        let first = old_addr.page().0;
        let last = old_addr.add(size.max(1) - 1).page().0;
        for page in first..=last {
            if let Some(sites) = self.dying_pages.get_mut(&page) {
                sites.push(site);
            }
        }
    }

    /// Records a nursery survivor with the site profiler.
    fn profile_nursery_survivor(&mut self, old_addr: Address, bytes: usize) {
        if self.profiler.is_none() {
            return;
        }
        let site = self.stats.site_of(old_addr);
        if !site.is_unknown() {
            if let Some(profiler) = self.profiler.as_mut() {
                profiler.record_nursery_survivor(site, bytes as u64);
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
        if let Some(observer) = self.observer.as_ref() {
            let needed = self.nursery.used_bytes();
            let available = observer.free_bytes();
            if available < needed {
                self.collect_observer_impl();
            } else {
                self.collect_nursery_impl();
            }
        } else {
            self.collect_nursery_impl();
        }
        if self.mature_used_bytes() > self.config.heap_budget_bytes {
            self.collect_full_impl();
        }
        self.sample_composition();
        self.update_peaks();
        // End-of-GC refresh point for adaptive policies.
        self.policy.on_gc_feedback(&self.stats);
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
        self.enter_safepoint();
        self.run_checkpoint(CheckPoint::PreCollect(CollectKind::Nursery));
        self.telemetry.span_enter("gc.nursery");
        let phase = Phase::NurseryGc;
        self.stats.nursery.collections += 1;
        let collected = self.nursery.used_bytes() as u64;
        self.stats.nursery_collected_bytes += collected;
        let copied_before = self.stats.nursery.bytes_copied;

        let mut queue: Vec<ObjectRef> = Vec::new();

        self.telemetry.span_enter("gc.nursery.roots");
        let entries: Vec<(Handle, ObjectRef)> = self.roots.iter().collect();
        for (handle, obj) in entries {
            if self.locate(obj.address()) == Location::Nursery {
                let new_obj = self.forward_young(obj, false, phase, &mut queue);
                self.roots.set(handle, new_obj);
            }
        }
        self.telemetry.span_exit();

        self.telemetry.span_enter("gc.nursery.remset");
        let slots = self.remset_nursery.drain();
        for slot in slots {
            if !self.mem.is_mapped(slot) {
                continue;
            }
            self.stats.work.gc_ops += 1;
            let value = ObjectRef::from_address(Address::new(self.mem.read_u64(slot, phase)));
            if value.is_null() {
                continue;
            }
            if self.locate(value.address()) == Location::Nursery {
                let new_obj = self.forward_young(value, false, phase, &mut queue);
                self.mem.write_u64(slot, new_obj.address().raw(), phase);
            }
        }
        self.telemetry.span_exit();

        self.telemetry.span_enter("gc.nursery.copy");
        self.process_young_queue(&mut queue, false, phase);
        self.telemetry.span_exit();

        let survived = self.stats.nursery.bytes_copied - copied_before;
        self.stats.nursery_survived_bytes += survived;
        let rate = if collected > 0 {
            survived as f64 / collected as f64
        } else {
            0.0
        };
        self.survival_estimate = 0.5 * self.survival_estimate + 0.5 * rate;

        // Re-evaluate the Large Object Optimization: devote part of the
        // nursery to large objects only while the large-object allocation
        // rate outpaces the nursery allocation rate (Section 4.2.4).
        if self.constraints.large_object_optimization {
            self.loo_active = self.los_alloc_since_gc > self.nursery_alloc_since_gc;
        }
        self.los_alloc_since_gc = 0;
        self.nursery_alloc_since_gc = 0;

        self.nursery.reset();
        self.remset_nursery.clear();
        self.stats.work.gc_ops += collected / 64;
        let pause_ns = self.telemetry.span_exit();
        self.telemetry.record("gc.pause_ns", pause_ns);
        self.telemetry.record("gc.pause.nursery_ns", pause_ns);
        self.run_checkpoint(CheckPoint::PostCollect(CollectKind::Nursery));
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
        self.enter_safepoint();
        assert!(
            self.observer.is_some(),
            "observer collection requires an observer-space policy (KG-W)"
        );
        self.run_checkpoint(CheckPoint::PreCollect(CollectKind::Observer));
        self.telemetry.span_enter("gc.observer");
        let phase = Phase::ObserverGc;
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
        let mut queue: Vec<ObjectRef> = Vec::new();
        let mut scanned: Vec<ObjectRef> = Vec::new();
        let mut nursery_live: Vec<ObjectRef> = Vec::new();
        self.nursery_marked.clear();

        self.telemetry.span_enter("gc.observer.roots");
        let entries: Vec<(Handle, ObjectRef)> = self.roots.iter().collect();
        for (handle, obj) in entries {
            let loc = self.locate(obj.address());
            if loc == Location::Nursery || loc == Location::Observer {
                let new_obj = self.observer_trace(obj, phase, &mut queue, &mut nursery_live);
                self.roots.set(handle, new_obj);
            }
        }
        self.telemetry.span_exit();

        self.telemetry.span_enter("gc.observer.remset");
        let slots: Vec<Address> = self.remset_observer.iter().collect();
        for slot in slots {
            if !self.mem.is_mapped(slot) {
                continue;
            }
            self.stats.work.gc_ops += 1;
            let value = ObjectRef::from_address(Address::new(self.mem.read_u64(slot, phase)));
            if value.is_null() {
                continue;
            }
            let loc = self.locate(value.address());
            if loc == Location::Nursery || loc == Location::Observer {
                let new_obj = self.observer_trace(value, phase, &mut queue, &mut nursery_live);
                if new_obj != value {
                    self.mem.write_u64(slot, new_obj.address().raw(), phase);
                }
            }
        }
        self.telemetry.span_exit();

        self.telemetry.span_enter("gc.observer.trace");
        while let Some(obj) = queue.pop() {
            let shape = obj.shape(&mut self.mem, phase);
            for i in 0..shape.ref_slots as usize {
                let target = obj.read_ref(&mut self.mem, i, phase);
                if target.is_null() {
                    continue;
                }
                let loc = self.locate(target.address());
                if loc != Location::Nursery && loc != Location::Observer {
                    continue;
                }
                let new_target = self.observer_trace(target, phase, &mut queue, &mut nursery_live);
                if new_target != target {
                    obj.write_ref_raw(&mut self.mem, i, new_target, phase);
                }
            }
            self.stats.work.gc_ops += 1 + shape.ref_slots as u64;
            scanned.push(obj);
        }
        self.telemetry.span_exit();

        let observer_survived = self.stats.observer.bytes_copied - observer_copied_before;
        self.stats.observer_survived_bytes += observer_survived;

        // Pass 2: the observer space is now fully evacuated; reset it and
        // copy the live nursery objects into it.
        self.telemetry.span_enter("gc.observer.copy");
        self.observer.as_mut().expect("observer space").reset();
        let nursery_copied_before = self.stats.nursery.bytes_copied;
        for &obj in &nursery_live {
            let shape = obj.shape(&mut self.mem, phase);
            let size = shape.size();
            let dst = self
                .observer
                .as_mut()
                .expect("observer space")
                .alloc_for_copy(&mut self.mem, size)
                .expect("observer space sized at twice the nursery always fits nursery survivors");
            self.profile_nursery_survivor(obj.address(), size);
            self.mem.copy(obj.address(), dst, size, phase);
            let new_obj = ObjectRef::from_address(dst);
            obj.set_forwarding(&mut self.mem, new_obj, phase);
            self.stats.object_moved(obj.address(), dst);
            self.stats.nursery.bytes_copied += size as u64;
            self.stats.nursery.objects_copied += 1;
            self.stats.work.gc_ops += 2 + size as u64 / 16;
        }
        self.stats.nursery_survived_bytes += self.stats.nursery.bytes_copied - nursery_copied_before;
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
        let nursery_base_in_scanned = scanned.clone();
        for obj in nursery_base_in_scanned {
            // Nursery objects were scanned in place; their final copy is the
            // forwarded address.
            let final_obj = if self.locate(obj.address()) == Location::Nursery
                && obj.is_forwarded(&mut self.mem, phase)
            {
                obj.forwarding(&mut self.mem, phase)
            } else {
                obj
            };
            let final_loc = self.locate(final_obj.address());
            let outside_region = final_loc != Location::Nursery && final_loc != Location::Observer;
            let shape = final_obj.shape(&mut self.mem, phase);
            for i in 0..shape.ref_slots as usize {
                let mut target = final_obj.read_ref(&mut self.mem, i, phase);
                if target.is_null() {
                    continue;
                }
                if self.locate(target.address()) == Location::Nursery
                    && target.is_forwarded(&mut self.mem, phase)
                {
                    target = target.forwarding(&mut self.mem, phase);
                    final_obj.write_ref_raw(&mut self.mem, i, target, phase);
                }
                if outside_region && self.locate(target.address()) == Location::Observer {
                    retained.push(final_obj.ref_slot(i));
                }
            }
        }
        let entries: Vec<(Handle, ObjectRef)> = self.roots.iter().collect();
        for (handle, obj) in entries {
            if self.locate(obj.address()) == Location::Nursery && obj.is_forwarded(&mut self.mem, phase) {
                let new_obj = obj.forwarding(&mut self.mem, phase);
                self.roots.set(handle, new_obj);
            }
        }
        // Slots outside the region whose referent was just copied *into* the
        // observer space must stay remembered, otherwise the next observer
        // collection would miss them and leave stale pointers behind.
        let slots: Vec<Address> = self.remset_observer.iter().collect();
        for slot in slots {
            if !self.mem.is_mapped(slot) {
                continue;
            }
            let value = ObjectRef::from_address(Address::new(self.mem.read_u64(slot, phase)));
            if value.is_null() {
                continue;
            }
            let mut current = value;
            if self.locate(value.address()) == Location::Nursery && value.is_forwarded(&mut self.mem, phase) {
                current = value.forwarding(&mut self.mem, phase);
                self.mem.write_u64(slot, current.address().raw(), phase);
            }
            if self.locate(current.address()) == Location::Observer {
                retained.push(slot);
            }
        }
        self.remset_observer.clear();
        for slot in retained {
            self.remset_observer.insert(slot);
        }
        self.telemetry.span_exit();

        self.nursery.reset();
        self.remset_nursery.clear();
        self.survival_estimate = 0.5 * self.survival_estimate
            + 0.5
                * if nursery_used > 0 {
                    (self.stats.nursery.bytes_copied - nursery_copied_before) as f64 / nursery_used as f64
                } else {
                    0.0
                };
        self.los_alloc_since_gc = 0;
        self.nursery_alloc_since_gc = 0;
        self.stats.work.gc_ops += (observer_used + nursery_used) / 64;
        let pause_ns = self.telemetry.span_exit();
        self.telemetry.record("gc.pause_ns", pause_ns);
        self.telemetry.record("gc.pause.observer_ns", pause_ns);
        self.run_checkpoint(CheckPoint::PostCollect(CollectKind::Observer));
    }

    /// Traces one object during a nursery collection (and the nursery part
    /// of major collections of the non-observer collectors).
    fn forward_young(
        &mut self,
        obj: ObjectRef,
        include_observer: bool,
        phase: Phase,
        queue: &mut Vec<ObjectRef>,
    ) -> ObjectRef {
        if obj.is_null() {
            return obj;
        }
        let loc = self.locate(obj.address());
        let in_scope = match loc {
            Location::Nursery => true,
            Location::Observer => include_observer,
            _ => false,
        };
        if !in_scope {
            return obj;
        }
        if obj.is_forwarded(&mut self.mem, phase) {
            return obj.forwarding(&mut self.mem, phase);
        }
        let shape = obj.shape(&mut self.mem, phase);
        let written = obj.is_written(&mut self.mem, phase);
        let size = shape.size();
        let site = if self.tracks_sites() {
            self.stats.site_of(obj.address())
        } else {
            SiteId::UNKNOWN
        };
        let dst = self.young_destination(loc, shape, written, site, phase);
        self.profile_nursery_survivor(obj.address(), size);
        self.mem.copy(obj.address(), dst, size, phase);
        let new_obj = ObjectRef::from_address(dst);
        obj.set_forwarding(&mut self.mem, new_obj, phase);
        self.stats.object_moved(obj.address(), dst);
        self.stats.nursery.bytes_copied += size as u64;
        self.stats.nursery.objects_copied += 1;
        self.stats.work.gc_ops += 2 + size as u64 / 16;
        queue.push(new_obj);
        new_obj
    }

    /// Chooses the destination of a live young object during a nursery
    /// collection. KG-W routes survivors through the observer space; the
    /// per-site policies pretenure them into DRAM or PCM mature space.
    fn young_destination(
        &mut self,
        loc: Location,
        shape: ObjectShape,
        written: bool,
        site: SiteId,
        phase: Phase,
    ) -> Address {
        debug_assert_eq!(loc, Location::Nursery);
        let size = shape.size();
        if let Some(observer) = self.observer.as_mut() {
            // Small objects always; a large object allocated in the nursery
            // by LOO also gets copied to the observer space if it fits.
            if let Some(addr) = observer.alloc_for_copy(&mut self.mem, size) {
                return addr;
            }
        }
        if shape.is_large() {
            return self
                .los_primary
                .alloc_raw(&mut self.mem, size)
                .expect("large object space exhausted during nursery collection");
        }
        match self.policy.survivor_placement(site, written) {
            SurvivorPlacement::Mature => {}
            SurvivorPlacement::AdvisedDram => {
                let mut placed = None;
                if let Some(mature_dram) = self.mature_dram.as_mut() {
                    placed = mature_dram.alloc_for_copy(&mut self.mem, size);
                }
                if let Some(addr) = placed {
                    self.stats.advised_to_dram_objects += 1;
                    self.stats.advised_to_dram_bytes += size as u64;
                    return addr;
                }
                // DRAM overflow: fall through to the primary mature space,
                // counted as an advised-to-PCM placement (the same
                // accounting as the large-allocation overflow path).
                self.stats.advised_to_pcm_objects += 1;
                self.stats.advised_to_pcm_bytes += size as u64;
            }
            SurvivorPlacement::AdvisedPcm => {
                self.stats.advised_to_pcm_objects += 1;
                self.stats.advised_to_pcm_bytes += size as u64;
            }
        }
        self.mature_primary
            .alloc_for_copy(&mut self.mem, size)
            .unwrap_or_else(|| panic!("mature space exhausted during nursery collection (phase {phase})"))
    }

    fn process_young_queue(&mut self, queue: &mut Vec<ObjectRef>, include_observer: bool, phase: Phase) {
        while let Some(obj) = queue.pop() {
            let shape = obj.shape(&mut self.mem, phase);
            for i in 0..shape.ref_slots as usize {
                let target = obj.read_ref(&mut self.mem, i, phase);
                if target.is_null() {
                    continue;
                }
                let loc = self.locate(target.address());
                let in_scope = loc == Location::Nursery || (include_observer && loc == Location::Observer);
                if !in_scope {
                    continue;
                }
                let new_target = self.forward_young(target, include_observer, phase, queue);
                if new_target != target {
                    obj.write_ref_raw(&mut self.mem, i, new_target, phase);
                }
            }
            self.stats.work.gc_ops += 1 + shape.ref_slots as u64;
        }
    }

    /// Pass-1 trace of an observer collection: evacuates observer objects to
    /// the mature spaces; records nursery objects for pass 2.
    fn observer_trace(
        &mut self,
        obj: ObjectRef,
        phase: Phase,
        queue: &mut Vec<ObjectRef>,
        nursery_live: &mut Vec<ObjectRef>,
    ) -> ObjectRef {
        if obj.is_null() {
            return obj;
        }
        match self.locate(obj.address()) {
            Location::Nursery => {
                if self.nursery_marked.insert(obj.address()) {
                    nursery_live.push(obj);
                    queue.push(obj);
                }
                obj
            }
            Location::Observer => {
                if obj.is_forwarded(&mut self.mem, phase) {
                    return obj.forwarding(&mut self.mem, phase);
                }
                let shape = obj.shape(&mut self.mem, phase);
                let written = obj.is_written(&mut self.mem, phase);
                let size = shape.size();
                let dst = self.observer_destination(shape, written);
                self.mem.copy(obj.address(), dst, size, phase);
                let new_obj = ObjectRef::from_address(dst);
                obj.set_forwarding(&mut self.mem, new_obj, phase);
                self.stats.object_moved(obj.address(), dst);
                self.stats.observer.bytes_copied += size as u64;
                self.stats.observer.objects_copied += 1;
                self.stats.work.gc_ops += 2 + size as u64 / 16;
                queue.push(new_obj);
                new_obj
            }
            _ => obj,
        }
    }

    /// Chooses the destination of a live observer-space object: the policy
    /// tenures it into the DRAM mature space (by default when its write bit
    /// is set) or into PCM; large objects go straight to the PCM large
    /// space without consulting the write bit (Section 4.2.4).
    fn observer_destination(&mut self, shape: ObjectShape, written: bool) -> Address {
        let size = shape.size();
        if shape.is_large() {
            let addr = self
                .los_primary
                .alloc_raw(&mut self.mem, size)
                .expect("large object space exhausted during observer collection");
            self.stats.observer_to_pcm_bytes += size as u64;
            self.stats.observer_to_pcm_objects += 1;
            return addr;
        }
        if self.policy.observer_tenure_to_dram(written) {
            if let Some(space) = self.mature_dram.as_mut() {
                if let Some(addr) = space.alloc_for_copy(&mut self.mem, size) {
                    self.stats.observer_to_dram_bytes += size as u64;
                    self.stats.observer_to_dram_objects += 1;
                    return addr;
                }
            }
        }
        let addr = self
            .mature_primary
            .alloc_for_copy(&mut self.mem, size)
            .expect("mature PCM space exhausted during observer collection");
        self.stats.observer_to_pcm_bytes += size as u64;
        self.stats.observer_to_pcm_objects += 1;
        addr
    }

    /// Full-heap collection.
    pub fn collect_full(&mut self) {
        self.emit_event(|| HeapEvent::Collect {
            kind: CollectKind::Full,
        });
        self.collect_full_impl();
    }

    pub(crate) fn collect_full_impl(&mut self) {
        self.enter_safepoint();
        self.run_checkpoint(CheckPoint::PreCollect(CollectKind::Full));
        self.telemetry.span_enter("gc.major");
        let phase = Phase::MajorGc;
        self.stats.major.collections += 1;

        // Pump the PCM fault model while the heap sits at the safepoint:
        // pages that just became uncorrectable are fenced now, before
        // tracing, so the trace below evacuates every live object off them
        // and the sweep can never hand their lines out again.
        self.pump_faults_and_fence();

        self.telemetry.span_enter("gc.major.prepare");
        self.mature_primary.prepare_collection();
        if let Some(space) = self.mature_dram.as_mut() {
            space.prepare_collection();
        }
        self.los_primary.prepare_collection();
        if let Some(space) = self.los_dram.as_mut() {
            space.prepare_collection();
        }
        if self.constraints.metadata_marks_in_dram {
            self.metadata.clear_object_marks(&mut self.mem, phase);
        }
        self.telemetry.span_exit();

        self.marked.clear();
        let mut queue: Vec<ObjectRef> = Vec::new();

        self.telemetry.span_enter("gc.major.roots");
        let entries: Vec<(Handle, ObjectRef)> = self.roots.iter().collect();
        for (handle, obj) in entries {
            let new_obj = self.trace_major(obj, phase, &mut queue);
            if new_obj != obj {
                self.roots.set(handle, new_obj);
            }
        }
        self.telemetry.span_exit();

        self.telemetry.span_enter("gc.major.trace");
        while let Some(obj) = queue.pop() {
            let shape = obj.shape(&mut self.mem, phase);
            for i in 0..shape.ref_slots as usize {
                let target = obj.read_ref(&mut self.mem, i, phase);
                if target.is_null() {
                    continue;
                }
                let new_target = self.trace_major(target, phase, &mut queue);
                if new_target != target {
                    obj.write_ref_raw(&mut self.mem, i, new_target, phase);
                }
            }
            self.stats.work.gc_ops += 1 + shape.ref_slots as u64;
        }
        self.telemetry.span_exit();

        self.telemetry.span_enter("gc.major.sweep");
        self.mature_primary.sweep(&mut self.mem);
        if let Some(space) = self.mature_dram.as_mut() {
            space.sweep(&mut self.mem);
        }
        self.los_primary.sweep(&mut self.mem);
        if let Some(space) = self.los_dram.as_mut() {
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
        self.sample_composition();
        self.update_peaks();
        // End-of-GC refresh point for adaptive policies: the rescue and
        // demotion counters this collection produced are now visible.
        self.policy.on_gc_feedback(&self.stats);
        self.record_policy_adaptation();
        let pause_ns = self.telemetry.span_exit();
        self.telemetry.record("gc.pause_ns", pause_ns);
        self.telemetry.record("gc.pause.major_ns", pause_ns);
        // Major collections are rare: a good cadence for wear-distribution
        // snapshots (and the heap is at a safepoint, so counts are complete).
        self.record_wear_snapshot();
        self.run_checkpoint(CheckPoint::PostCollect(CollectKind::Full));
    }

    /// Traces one object during a full-heap collection, applying the
    /// policy's between-space movement decisions.
    fn trace_major(&mut self, obj: ObjectRef, phase: Phase, queue: &mut Vec<ObjectRef>) -> ObjectRef {
        if obj.is_null() {
            return obj;
        }
        let loc = self.locate(obj.address());
        match loc {
            Location::Nursery | Location::Observer => {
                if obj.is_forwarded(&mut self.mem, phase) {
                    return obj.forwarding(&mut self.mem, phase);
                }
                let shape = obj.shape(&mut self.mem, phase);
                let written = obj.is_written(&mut self.mem, phase);
                let size = shape.size();
                // Per-site policies pretenure young survivors by site advice
                // even when the full collection (rather than a nursery
                // collection) evacuates them.
                let site = self.stats.site_of(obj.address());
                let placement = self.policy.survivor_placement(site, written);
                let advised_dram = placement == SurvivorPlacement::AdvisedDram;
                let dst = if shape.is_large() {
                    self.los_primary
                        .alloc_raw(&mut self.mem, size)
                        .unwrap_or_else(|| {
                            panic!(
                                "large object space exhausted during full collection \
                             (copying {obj:?} at {loc:?}, {size} bytes, shape {shape:?})"
                            )
                        })
                } else {
                    let mut dram_dst = None;
                    if written || advised_dram {
                        if let Some(mature_dram) = self.mature_dram.as_mut() {
                            dram_dst = mature_dram.alloc_for_copy(&mut self.mem, size);
                        }
                    }
                    match dram_dst {
                        Some(dst) => {
                            if advised_dram {
                                self.stats.advised_to_dram_objects += 1;
                                self.stats.advised_to_dram_bytes += size as u64;
                            }
                            dst
                        }
                        // DRAM full or absent: place in PCM (for a written or
                        // advised-hot object the rescue of a later collection
                        // remains the safety net), with the same advised
                        // accounting as the nursery-collection path.
                        None => {
                            if placement != SurvivorPlacement::Mature {
                                self.stats.advised_to_pcm_objects += 1;
                                self.stats.advised_to_pcm_bytes += size as u64;
                            }
                            self.mature_primary
                                .alloc_for_copy(&mut self.mem, size)
                                .expect("mature space exhausted during full collection")
                        }
                    }
                };
                if loc == Location::Nursery {
                    self.profile_nursery_survivor(obj.address(), size);
                }
                self.mem.copy(obj.address(), dst, size, phase);
                let new_obj = ObjectRef::from_address(dst);
                obj.set_forwarding(&mut self.mem, new_obj, phase);
                self.stats.object_moved(obj.address(), dst);
                self.stats.major.bytes_copied += size as u64;
                self.stats.major.objects_copied += 1;
                self.mark_new_copy(new_obj, size, phase);
                queue.push(new_obj);
                new_obj
            }
            Location::MaturePrimary => {
                if obj.is_forwarded(&mut self.mem, phase) {
                    return obj.forwarding(&mut self.mem, phase);
                }
                if !self.marked.insert(obj.address()) {
                    return obj;
                }
                let shape = obj.shape(&mut self.mem, phase);
                let size = shape.size();
                let written = obj.is_written(&mut self.mem, phase);
                let endangered = self.on_dying_page(obj.address(), size);
                let rescue = self.constraints.rescue_written_objects
                    && written
                    && self.mature_primary.kind() == MemoryKind::Pcm
                    && self.mature_dram.is_some();
                if rescue {
                    // A written object was detected in PCM: move it back to
                    // the DRAM mature space and reset its write bit.
                    let site = self.stats.site_of(obj.address());
                    let dst = self
                        .mature_dram
                        .as_mut()
                        .expect("checked above")
                        .alloc_for_copy(&mut self.mem, size)
                        .expect("mature DRAM space exhausted during full collection");
                    self.mem.copy(obj.address(), dst, size, phase);
                    let new_obj = ObjectRef::from_address(dst);
                    new_obj.clear_written(&mut self.mem, phase);
                    obj.set_forwarding(&mut self.mem, new_obj, phase);
                    self.stats.object_moved(obj.address(), dst);
                    self.stats.pcm_to_dram_rescues += 1;
                    self.stats.record_site_rescue(site);
                    self.stats.major.bytes_copied += size as u64;
                    self.stats.major.objects_copied += 1;
                    self.mark_new_copy(new_obj, size, phase);
                    if endangered {
                        self.record_evacuation(obj.address(), size, site);
                    }
                    queue.push(new_obj);
                    return new_obj;
                }
                if endangered {
                    // Forced evacuation off a dying page: the object may be
                    // unwritten (or the collector may not rescue at all —
                    // KG-N, the PCM-only baseline), but its page is about
                    // to be retired. Prefer DRAM when the topology has it;
                    // otherwise a fresh PCM line is safe, since the fence
                    // guarantees the copy cannot land back on the page.
                    let site = self.stats.site_of(obj.address());
                    let mut dst = None;
                    if let Some(mature_dram) = self.mature_dram.as_mut() {
                        dst = mature_dram.alloc_for_copy(&mut self.mem, size);
                    }
                    let dst = match dst {
                        Some(dst) => dst,
                        None => self
                            .mature_primary
                            .alloc_for_copy(&mut self.mem, size)
                            .expect("mature space exhausted during page-retirement evacuation"),
                    };
                    self.mem.copy(obj.address(), dst, size, phase);
                    let new_obj = ObjectRef::from_address(dst);
                    obj.set_forwarding(&mut self.mem, new_obj, phase);
                    self.record_evacuation(obj.address(), size, site);
                    self.stats.object_moved(obj.address(), dst);
                    self.stats.major.bytes_copied += size as u64;
                    self.stats.major.objects_copied += 1;
                    self.mark_new_copy(new_obj, size, phase);
                    queue.push(new_obj);
                    return new_obj;
                }
                self.mature_primary
                    .mark_lines(&mut self.mem, obj.address(), size, phase);
                self.account_object_mark(obj, self.mature_primary.kind(), phase);
                queue.push(obj);
                obj
            }
            Location::MatureDram => {
                if obj.is_forwarded(&mut self.mem, phase) {
                    return obj.forwarding(&mut self.mem, phase);
                }
                if !self.marked.insert(obj.address()) {
                    return obj;
                }
                let shape = obj.shape(&mut self.mem, phase);
                let size = shape.size();
                let written = obj.is_written(&mut self.mem, phase);
                // The policy decides whether an unwritten DRAM object may be
                // demoted: KG-A pins advised-hot sites in DRAM even across
                // quiet periods — demoting them would only churn the next
                // rescue — while KG-W and KG-D demote every unwritten object
                // (for KG-D, demotion is the signal that un-learns stale
                // advice).
                let site = self.stats.site_of(obj.address());
                if self.constraints.rescue_written_objects
                    && !written
                    && self.policy.demote_unwritten_dram(site)
                {
                    // Unwritten DRAM mature object: demote to PCM to exploit
                    // PCM capacity (Section 4.2.3).
                    let dst = self
                        .mature_primary
                        .alloc_for_copy(&mut self.mem, size)
                        .expect("mature PCM space exhausted during full collection");
                    self.mem.copy(obj.address(), dst, size, phase);
                    let new_obj = ObjectRef::from_address(dst);
                    obj.set_forwarding(&mut self.mem, new_obj, phase);
                    self.stats.object_moved(obj.address(), dst);
                    self.stats.dram_to_pcm_demotions += 1;
                    self.stats.record_site_demotion(site);
                    self.stats.major.bytes_copied += size as u64;
                    self.stats.major.objects_copied += 1;
                    self.mark_new_copy(new_obj, size, phase);
                    queue.push(new_obj);
                    return new_obj;
                }
                let space = self
                    .mature_dram
                    .as_mut()
                    .expect("location implies DRAM mature space");
                space.mark_lines(&mut self.mem, obj.address(), size, phase);
                obj.set_marked(&mut self.mem, true, phase);
                queue.push(obj);
                obj
            }
            Location::LargePrimary => {
                if obj.is_forwarded(&mut self.mem, phase) {
                    return obj.forwarding(&mut self.mem, phase);
                }
                if !self.marked.insert(obj.address()) {
                    return obj;
                }
                let written = obj.is_written(&mut self.mem, phase);
                let size = self
                    .los_primary
                    .size_of(obj.address())
                    .unwrap_or_else(|| obj.size(&mut self.mem, phase));
                let endangered = self.on_dying_page(obj.address(), size);
                let move_to_dram = self.constraints.rescue_written_objects
                    && written
                    && self.los_primary.kind() == MemoryKind::Pcm
                    && self.los_dram.is_some();
                if move_to_dram {
                    let dst = self
                        .los_dram
                        .as_mut()
                        .expect("checked above")
                        .alloc_raw(&mut self.mem, size)
                        .expect("DRAM large object space exhausted during full collection");
                    self.mem.copy(obj.address(), dst, size, phase);
                    let new_obj = ObjectRef::from_address(dst);
                    new_obj.clear_written(&mut self.mem, phase);
                    obj.set_forwarding(&mut self.mem, new_obj, phase);
                    self.stats.object_moved(obj.address(), dst);
                    self.stats.large_pcm_to_dram_moves += 1;
                    self.stats.major.bytes_copied += size as u64;
                    self.stats.major.objects_copied += 1;
                    self.los_dram
                        .as_mut()
                        .expect("checked above")
                        .mark(&mut self.mem, new_obj, phase);
                    if endangered {
                        let site = self.stats.site_of(obj.address());
                        self.record_evacuation(obj.address(), size, site);
                    }
                    queue.push(new_obj);
                    return new_obj;
                }
                if endangered {
                    // Forced evacuation of a large object overlapping a
                    // dying page. Prefer the DRAM large space; fall back to
                    // a fresh PCM run (the fenced page is carved out of the
                    // free list, so the copy cannot overlap it).
                    let site = self.stats.site_of(obj.address());
                    let mut dst = None;
                    if let Some(los_dram) = self.los_dram.as_mut() {
                        dst = los_dram.alloc_raw(&mut self.mem, size);
                    }
                    let (dst, to_dram) = match dst {
                        Some(dst) => (dst, true),
                        None => (
                            self.los_primary
                                .alloc_raw(&mut self.mem, size)
                                .expect("large object space exhausted during page-retirement evacuation"),
                            false,
                        ),
                    };
                    self.mem.copy(obj.address(), dst, size, phase);
                    let new_obj = ObjectRef::from_address(dst);
                    obj.set_forwarding(&mut self.mem, new_obj, phase);
                    self.record_evacuation(obj.address(), size, site);
                    self.stats.object_moved(obj.address(), dst);
                    self.stats.major.bytes_copied += size as u64;
                    self.stats.major.objects_copied += 1;
                    if to_dram {
                        self.los_dram
                            .as_mut()
                            .expect("checked above")
                            .mark(&mut self.mem, new_obj, phase);
                    } else {
                        self.los_primary.mark(&mut self.mem, new_obj, phase);
                    }
                    queue.push(new_obj);
                    return new_obj;
                }
                self.los_primary.mark(&mut self.mem, obj, phase);
                queue.push(obj);
                obj
            }
            Location::LargeDram => {
                if !self.marked.insert(obj.address()) {
                    return obj;
                }
                self.los_dram
                    .as_mut()
                    .expect("location implies DRAM large space")
                    .mark(&mut self.mem, obj, phase);
                queue.push(obj);
                obj
            }
            Location::Other => obj,
        }
    }

    /// Marks the destination of an object copied during a major collection so
    /// that the post-trace sweep does not reclaim it.
    fn mark_new_copy(&mut self, obj: ObjectRef, size: usize, phase: Phase) {
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
    use advice::{AdviceTable, Placement};
    use hybrid_mem::MemoryConfig;

    fn heap(config: HeapConfig) -> KingsguardHeap {
        KingsguardHeap::new(config, MemoryConfig::architecture_independent())
    }

    #[test]
    fn nursery_collection_preserves_live_data_and_drops_garbage() {
        let mut h = heap(HeapConfig::kg_n());
        let live = h.alloc(ObjectShape::new(1, 64), 1);
        let dead = h.alloc(ObjectShape::new(0, 64), 2);
        h.write_prim(live, 0, 8);
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
        let mut h = heap(HeapConfig::kg_n());
        let parent = h.alloc(ObjectShape::new(2, 0), 1);
        let child = h.alloc(ObjectShape::new(0, 24), 2);
        h.write_ref(parent, 0, Some(child));
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
        let mut h = heap(HeapConfig::kg_n());
        let parent = h.alloc(ObjectShape::new(1, 0), 1);
        h.collect_nursery(); // parent is now mature
        let child = h.alloc(ObjectShape::new(0, 32), 2);
        h.write_ref(parent, 0, Some(child));
        h.release(child); // only reachable through the mature parent
        h.collect_nursery();
        let parent_obj = h.resolve(parent);
        let child_obj = parent_obj.read_ref(&mut h.mem, 0, Phase::Mutator);
        assert!(!child_obj.is_null());
        assert_eq!(h.locate(child_obj.address()), Location::MaturePrimary);
    }

    #[test]
    fn kgw_nursery_survivors_go_to_the_observer_space() {
        let mut h = heap(HeapConfig::kg_w());
        let handle = h.alloc(ObjectShape::new(0, 128), 1);
        h.collect_nursery();
        assert_eq!(h.locate(h.resolve(handle).address()), Location::Observer);
    }

    #[test]
    fn observer_collection_separates_written_and_unwritten_objects() {
        let mut h = heap(HeapConfig::kg_w());
        let hot = h.alloc(ObjectShape::new(0, 256), 1);
        let cold = h.alloc(ObjectShape::new(0, 256), 2);
        h.collect_nursery();
        assert_eq!(h.locate(h.resolve(hot).address()), Location::Observer);
        // Write to the hot object while it is observed.
        h.write_prim(hot, 0, 16);
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
        let mut h = heap(HeapConfig::kg_w());
        let veteran = h.alloc(ObjectShape::new(0, 64), 1);
        h.collect_nursery(); // veteran now in observer
        let newcomer = h.alloc(ObjectShape::new(0, 64), 2);
        h.collect_observer();
        assert_ne!(h.locate(h.resolve(veteran).address()), Location::Observer);
        assert_eq!(h.locate(h.resolve(newcomer).address()), Location::Observer);
    }

    #[test]
    fn major_collection_rescues_written_pcm_objects_to_dram() {
        let mut h = heap(HeapConfig::kg_w());
        let handle = h.alloc(ObjectShape::new(0, 128), 1);
        h.collect_nursery();
        h.collect_observer(); // unwritten => lands in mature PCM
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MaturePrimary);
        h.write_prim(handle, 0, 8); // write it while it lives in PCM
        h.collect_full();
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MatureDram);
        assert_eq!(h.stats().pcm_to_dram_rescues, 1);
        // Its write bit was reset when it was rescued.
        let obj = h.resolve(handle);
        assert!(!obj.is_written(&mut h.mem, Phase::Mutator));
    }

    #[test]
    fn major_collection_demotes_unwritten_dram_objects_to_pcm() {
        let mut h = heap(HeapConfig::kg_w());
        let handle = h.alloc(ObjectShape::new(0, 128), 1);
        h.collect_nursery();
        h.write_prim(handle, 0, 8); // written while observed -> mature DRAM
        h.collect_observer();
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MatureDram);
        // It is not written again afterwards, so the next major collection
        // demotes it to PCM to exploit PCM capacity... but its write bit is
        // still set from the observer epoch, so it stays. Clear by rescue
        // cycle: first major keeps it (written), write bit persists until the
        // object is rescued. Verify the "unwritten" path with a fresh object:
        let cold = h.alloc(ObjectShape::new(0, 128), 2);
        h.collect_nursery();
        h.write_prim(cold, 0, 8);
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
        let mut h = heap(HeapConfig::kg_n());
        let keep = h.alloc(ObjectShape::new(0, 256), 1);
        let toss = h.alloc(ObjectShape::new(0, 256), 2);
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
        let mut h = heap(HeapConfig::kg_w_no_loo());
        let big = h.alloc(ObjectShape::primitive(32 * 1024), 1);
        assert_eq!(h.locate(h.resolve(big).address()), Location::LargePrimary);
        h.write_prim(big, 100, 8);
        h.collect_full();
        assert_eq!(h.locate(h.resolve(big).address()), Location::LargeDram);
        assert_eq!(h.stats().large_pcm_to_dram_moves, 1);
        // Once in DRAM it never moves back, even after another collection.
        h.collect_full();
        assert_eq!(h.locate(h.resolve(big).address()), Location::LargeDram);
    }

    #[test]
    fn collect_young_escalates_to_observer_collection_when_observer_fills() {
        let mut h = heap(HeapConfig::kg_w());
        // Allocate enough surviving data to fill the observer space (all
        // objects stay rooted so everything survives).
        let object_bytes = 1024;
        let objects = (h.config().observer_bytes * 2) / object_bytes;
        for _ in 0..objects {
            h.alloc(ObjectShape::new(0, object_bytes as u32 - 40), 1);
        }
        assert!(
            h.stats().observer.collections > 0,
            "observer collections must have happened"
        );
        assert!(h.stats().nursery.collections > 0);
    }

    #[test]
    fn composition_samples_are_recorded_per_collection() {
        let mut h = heap(HeapConfig::kg_w());
        for _ in 0..200 {
            let handle = h.alloc(ObjectShape::new(1, 200), 1);
            h.release(handle);
        }
        h.collect_full();
        assert!(!h.stats().composition.is_empty());
        let last = h.stats().composition.last().unwrap();
        assert!(last.allocated_bytes > 0);
    }

    #[test]
    fn gen_immix_dram_only_never_touches_pcm() {
        let mut h = heap(HeapConfig::gen_immix_dram());
        for i in 0..500 {
            let handle = h.alloc(ObjectShape::new(1, 100), i as u16);
            h.write_prim(handle, 0, 8);
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
        let mut h = heap(HeapConfig::kg_a(table));
        let hot = h.alloc_site(ObjectShape::new(0, 128), 1, SiteId(1));
        let cold = h.alloc_site(ObjectShape::new(0, 128), 2, SiteId(2));
        let untagged = h.alloc(ObjectShape::new(0, 128), 3);
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
        let mut h = heap(HeapConfig::kg_a(AdviceTable::all_cold()));
        let handle = h.alloc_site(ObjectShape::new(0, 128), 1, SiteId(4));
        h.collect_nursery();
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MaturePrimary);
        // The profile said cold, but the object is written in PCM: the KG-W
        // style rescue of the next full collection must save it.
        h.write_prim(handle, 0, 8);
        h.collect_full();
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MatureDram);
        assert_eq!(h.stats().pcm_to_dram_rescues, 1);
    }

    #[test]
    fn kga_advised_hot_sites_stay_in_dram_across_quiet_major_gcs() {
        let table = AdviceTable::from_entries([(SiteId(1), Placement::DramMature)], Placement::PcmMature);
        let mut h = heap(HeapConfig::kg_a(table));
        let hot = h.alloc_site(ObjectShape::new(0, 128), 1, SiteId(1));
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
        let mut h = heap(HeapConfig::kg_a(AdviceTable::all_cold()));
        let handle = h.alloc_site(ObjectShape::new(0, 128), 1, SiteId(4));
        h.collect_nursery();
        h.write_prim(handle, 0, 8);
        h.collect_full(); // rescued to DRAM, write bit reset
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MatureDram);
        h.collect_full(); // quiet since rescue: demoted back to PCM
        assert_eq!(h.locate(h.resolve(handle).address()), Location::MaturePrimary);
        assert_eq!(h.stats().dram_to_pcm_demotions, 1);
    }

    #[test]
    fn kga_pretenures_hot_large_sites_into_the_dram_large_space() {
        let table = AdviceTable::from_entries([(SiteId(8), Placement::DramMature)], Placement::PcmMature);
        let mut h = heap(HeapConfig::kg_a(table));
        let hot_large = h.alloc_site(ObjectShape::primitive(32 * 1024), 1, SiteId(8));
        let cold_large = h.alloc_site(ObjectShape::primitive(32 * 1024), 2, SiteId(9));
        assert_eq!(h.locate(h.resolve(hot_large).address()), Location::LargeDram);
        assert_eq!(h.locate(h.resolve(cold_large).address()), Location::LargePrimary);
    }

    #[test]
    fn kga_all_cold_advice_behaves_like_kg_n_for_placement() {
        let mut h = heap(HeapConfig::kg_a(AdviceTable::all_cold()));
        for i in 0..200 {
            let handle = h.alloc_site(ObjectShape::new(1, 96), 1, SiteId(1 + (i % 7)));
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
        let fault = FaultConfig::new(0xFA11, Endurance::Mid30M)
            .with_wear_multiplier(u64::MAX / 4)
            .with_ecc_correctable_lines(0);
        let mut h = KingsguardHeap::new(
            HeapConfig::kg_n(),
            MemoryConfig::architecture_independent().with_faults(fault),
        );
        let mut handles = Vec::new();
        for i in 0..64u16 {
            handles.push(h.alloc(ObjectShape::new(0, 128), i));
        }
        let big = h.alloc(ObjectShape::primitive(32 * 1024), 99);
        h.collect_young(); // small objects now sit in mature PCM
        for &handle in &handles {
            h.write_prim(handle, 0, 64);
        }
        h.write_prim(big, 0, 64);
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
        let mut h = heap(HeapConfig::kg_w());
        for i in 0..100u16 {
            let handle = h.alloc(ObjectShape::new(0, 256), i);
            h.write_prim(handle, 0, 32);
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
        let mut h = heap(HeapConfig::kg_n());
        for _ in 0..200 {
            let handle = h.alloc(ObjectShape::new(0, 256), 1);
            h.write_prim(handle, 0, 64);
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
