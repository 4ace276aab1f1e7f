#include "iommu/iommu.h"

#include <algorithm>

#include "fault/fault_injector.h"
#include "sim/check_hooks.h"
#include "sim/logging.h"

namespace hiss {

Iommu::Iommu(SimContext &ctx, Kernel &kernel, const IommuParams &params)
    : SimObject(ctx, "iommu", kSiteKinds),
      kernel_(kernel),
      spaces_(kernel.addressSpaces()),
      params_(params),
      fault_latency_(ctx.stats.addDistribution(
          "iommu.fault_latency",
          "PPR issue to resolution latency (ticks)"))
{
    if (params.steering == MsiSteering::SingleCore
        && (params.steer_core < 0
            || params.steer_core >= kernel.numCores()))
        fatal("Iommu: steer_core %d out of range", params.steer_core);
    if (params.coalescing && params.coalesce_window == 0)
        fatal("Iommu: coalescing enabled with zero window");
    if (params.iotlb_entries == 0)
        fatal("Iommu: iotlb_entries must be positive");
    if (params.iotlb_entries > IommuParams::kMaxIotlbEntries)
        fatal("Iommu: iotlb_entries %u exceeds the maximum %u",
              params.iotlb_entries, IommuParams::kMaxIotlbEntries);
    // Probe table: power of two >= 2x capacity, so the load factor
    // stays <= 1/2 and linear-probe chains stay short.
    std::uint32_t slots = 8;
    std::uint32_t log2_slots = 3;
    while (slots < params.iotlb_entries * 2) {
        slots *= 2;
        ++log2_slots;
    }
    iotlb_slots_.assign(slots, 0);
    iotlb_ring_.assign(params.iotlb_entries, 0);
    iotlb_mask_ = slots - 1;
    iotlb_shift_ = 64 - log2_slots;
    stats().addFormula("iommu.pprs", "peripheral page requests issued",
                       [this] {
                           return static_cast<double>(pprs_issued_);
                       });
    stats().addFormula("iommu.msis", "MSIs raised",
                       [this] {
                           return static_cast<double>(msis_raised_);
                       });
    stats().addFormula("iommu.iotlb_hits", "IOTLB hits",
                       [this] {
                           return static_cast<double>(iotlb_hits_);
                       });
    stats().addFormula("iommu.iotlb_misses", "IOTLB misses",
                       [this] {
                           return static_cast<double>(iotlb_misses_);
                       });
    // Registered only under fault injection so fault-free stat dumps
    // stay byte-identical to builds without the fault subsystem.
    if (faultInjector() != nullptr) {
        stats().addFormula("iommu.pprs_rejected",
                           "PPRs rejected by queue overflow (INVALID)",
                           [this] {
                               return static_cast<double>(pprs_rejected_);
                           });
        stats().addFormula("iommu.faults_aborted",
                           "PPRs aborted by the driver watchdog",
                           [this] {
                               return static_cast<double>(faults_aborted_);
                           });
        stats().addFormula("iommu.msi_recoveries",
                           "dropped MSIs re-raised by the watchdog",
                           [this] {
                               return static_cast<double>(msi_recoveries_);
                           });
    }
}

std::uint32_t
Iommu::iotlbSlot(Vpn vpn) const
{
    // Fibonacci hashing: the top log2(slots) bits of vpn * 2^64/phi.
    // A launch generation issues near-sequential VPNs, and consecutive
    // multiples of the golden ratio land at maximal spacing around the
    // table, so streaming keys probe about one slot each for a single
    // multiply.
    return static_cast<std::uint32_t>((vpn * 0x9e3779b97f4a7c15ULL)
                                      >> iotlb_shift_);
}

bool
Iommu::iotlbContains(Vpn vpn) const
{
    const Vpn code = vpn + 1;
    for (std::uint32_t i = iotlbSlot(vpn);; i = (i + 1) & iotlb_mask_) {
        if (iotlb_slots_[i] == code)
            return true;
        if (iotlb_slots_[i] == 0)
            return false;
    }
}

void
Iommu::eraseIotlb(Vpn vpn)
{
    const Vpn code = vpn + 1;
    std::uint32_t hole = iotlbSlot(vpn);
    while (iotlb_slots_[hole] != code) {
        if (iotlb_slots_[hole] == 0)
            return; // Not resident (defensive; ring says it is).
        hole = (hole + 1) & iotlb_mask_;
    }
    // Backward-shift deletion: keep every survivor reachable from
    // its ideal slot without tombstones. An entry at j may fill the
    // hole iff the hole lies on its probe path, i.e. within
    // [ideal(j), j] cyclically.
    for (std::uint32_t j = (hole + 1) & iotlb_mask_;
         iotlb_slots_[j] != 0; j = (j + 1) & iotlb_mask_) {
        const std::uint32_t ideal = iotlbSlot(iotlb_slots_[j] - 1);
        if (((hole - ideal) & iotlb_mask_) <= ((j - ideal) & iotlb_mask_)) {
            iotlb_slots_[hole] = iotlb_slots_[j];
            hole = j;
        }
    }
    iotlb_slots_[hole] = 0;
}

bool
Iommu::placeIotlb(Vpn vpn)
{
    // One probe pass does both the presence check and the slot
    // search (the old list + map shape re-hashed the key for each).
    const Vpn code = vpn + 1;
    std::uint32_t i = iotlbSlot(vpn);
    while (iotlb_slots_[i] != 0) {
        if (iotlb_slots_[i] == code)
            return false;
        i = (i + 1) & iotlb_mask_;
    }
    iotlb_slots_[i] = code;
    return true;
}

void
Iommu::insertIotlb(Vpn vpn)
{
    if (!placeIotlb(vpn))
        return; // Already resident (duplicate in-flight faults).
    // Installed before evicting: the backward shift below may reuse
    // the new slot, but never breaks the chain of an already-stored
    // entry.
    if (iotlb_size_ == params_.iotlb_entries) {
        // Full: FIFO eviction — drop the oldest entry and reuse its
        // ring slot for the newcomer.
        eraseIotlb(iotlb_ring_[iotlb_head_]);
        iotlb_ring_[iotlb_head_] = vpn;
        iotlb_head_ = iotlb_head_ + 1 == params_.iotlb_entries
            ? 0
            : iotlb_head_ + 1;
        return;
    }
    std::uint32_t tail = iotlb_head_ + iotlb_size_;
    if (tail >= params_.iotlb_entries)
        tail -= params_.iotlb_entries;
    iotlb_ring_[tail] = vpn;
    ++iotlb_size_;
}

void
Iommu::attachClient(std::uint64_t device, TranslateClient &client)
{
    if (device >= clients_.size())
        clients_.resize(device + 1, nullptr);
    clients_[device] = &client;
}

void
Iommu::complete(const snap::Token &token, TranslateResult result)
{
    if (token.kind == kCallableKind) {
        --callable_inflight_;
        reinterpret_cast<TranslateClient *>(token.a)->translated(token,
                                                                 result);
        return;
    }
    if (token.a >= clients_.size() || clients_[token.a] == nullptr)
        panic("Iommu: no translate client for device %llu",
              static_cast<unsigned long long>(token.a));
    clients_[token.a]->translated(token, result);
}

void
Iommu::finishWalk(Vpn vpn, const snap::Token &token, bool allow_fault,
                  Pasid pasid)
{
    // Pinned-memory baseline: the page was (conceptually) mapped
    // before launch, so the walk succeeds with no host work. No frame
    // is allocated and no page-table entry written: nothing reads that
    // state, and a looping pinned workload would otherwise grow it
    // without bound.
    Pfn pfn;
    if (!allow_fault || spaces_.table(pasid).translate(vpn, pfn)) {
        insertIotlb(vpn);
        complete(token, TranslateResult::Ok);
        return;
    }
    queuePpr(pasid, vpn, token);
}

void
Iommu::translate(Vpn vpn, const snap::Token &token, bool allow_fault,
                 Pasid pasid)
{
    // Note: the IOTLB is tagged by VPN only; accelerators use
    // disjoint VPN namespaces, so entries cannot alias in practice.
    if (iotlbContains(vpn)) {
        ++iotlb_hits_;
        scheduleAfter(params_.iotlb_hit_latency, EventPriority::Device,
                      kHit, vpn, 0, 0, token);
        return;
    }
    ++iotlb_misses_;
    scheduleAfter(params_.walk_latency, EventPriority::Device, kWalk, vpn,
                  pasid, allow_fault ? 1u : 0u, token);
}

void
Iommu::attachPprCallbacks(SsrRequest &request, const snap::Token &token)
{
    const Vpn vpn = request.vpn;
    const Tick issued = request.issued_at;
    request.on_service_complete = [this, vpn, issued, token](CpuCore &) {
        ++faults_resolved_;
        fault_latency_.sample(static_cast<double>(now() - issued));
        insertIotlb(vpn);
        complete(token, TranslateResult::Ok);
    };
    // Recovery-capable shape: the driver watchdog may abort instead.
    if (faultInjector() != nullptr) {
        request.on_abort = [this, token] {
            ++faults_aborted_;
            complete(token, TranslateResult::Aborted);
        };
    }
}

void
Iommu::rebuildRequestCallbacks(SsrRequest &request)
{
    attachPprCallbacks(request, request.origin.arg);
}

void
Iommu::queuePpr(Pasid pasid, Vpn vpn, const snap::Token &token)
{
    FaultInjector *faults = faultInjector();
    if (faults != nullptr && faults->pprOverflow(ppr_queue_.size())) {
        // amd_iommu_v2 PPR-log overflow: the request never enters
        // the queue; the hardware auto-responds INVALID and the
        // device must retry (or give up).
        ++pprs_rejected_;
        complete(token, TranslateResult::Rejected);
        return;
    }
    ++pprs_issued_;
    SsrRequest request;
    request.id = next_request_id_++;
    request.kind = ServiceKind::PageFault;
    request.pasid = pasid;
    request.vpn = vpn;
    request.issued_at = now();
    request.origin = {{"iommu.ppr", vpn, pasid}, token};
    attachPprCallbacks(request, token);
    // Track the PPR inter-arrival EMA for adaptive coalescing.
    const Tick gap = std::min<Tick>(now() - last_ppr_at_, msToTicks(1));
    last_ppr_at_ = now();
    ppr_gap_ema_ = (ppr_gap_ema_ * 7 + gap * 3) / 10;

    if (CheckHooks *checks = checkHooks())
        checks->onSsrIssued(static_cast<const RequestSource *>(this),
                            request.id);
    ppr_queue_.push_back(std::move(request));
    considerRaiseMsi();
}

Tick
Iommu::effectiveWindow() const
{
    if (!params_.adaptive_coalescing)
        return params_.coalesce_window;
    // vIC-style: batch hard when requests arrive densely; deliver
    // promptly when the stream is sparse (waiting would only add
    // latency, nothing would batch).
    if (ppr_gap_ema_ >= params_.coalesce_window)
        return 500;
    return std::min(std::max<Tick>(ppr_gap_ema_ * 3, 500),
                    params_.coalesce_window);
}

void
Iommu::considerRaiseMsi()
{
    if (ppr_queue_.empty() || msi_inflight_)
        return;
    if (!params_.coalescing) {
        raiseMsi();
        return;
    }
    if (ppr_queue_.size() >= params_.coalesce_burst) {
        if (coalesce_event_ != kInvalidEventId)
            events().cancel(coalesce_event_);
        coalesce_event_ = kInvalidEventId;
        raiseMsi();
        return;
    }
    if (coalesce_event_ == kInvalidEventId
        || !events().pending(coalesce_event_)) {
        coalesce_event_ = scheduleAfter(effectiveWindow(),
                                        EventPriority::Device, kCoalesce);
    }
}

void
Iommu::raiseMsi()
{
    if (driver_ == nullptr)
        panic("Iommu: raiseMsi with no driver attached");
    msi_inflight_ = true;
    ++msis_raised_;
    Tick latency = params_.msi_latency;
    if (FaultInjector *faults = faultInjector()) {
        const IrqFate fate = faults->irqFate();
        if (fate.dropped) {
            // The delivery vanishes. A device watchdog notices the
            // never-acked interrupt and re-raises; the queued PPRs
            // stay put, so nothing is lost — only delayed.
            scheduleAfter(faults->plan().irq_watchdog,
                          EventPriority::Device, kMsiWatchdog);
            return;
        }
        latency += fate.extra_delay;
        if (fate.duplicated) {
            // A second, spurious delivery lands one MSI latency
            // after the real one; it drains whatever is queued then
            // (usually nothing) and its stray ack is harmless.
            scheduleAfter(latency + params_.msi_latency,
                          EventPriority::Device, kMsiDup);
        }
    }
    const int target = pickTargetCore();
    scheduleAfter(latency, EventPriority::Device, kMsi,
                  static_cast<std::uint64_t>(target));
}

int
Iommu::pickTargetCore()
{
    switch (params_.steering) {
      case MsiSteering::SingleCore:
        return params_.steer_core;
      case MsiSteering::SpreadRoundRobin: {
        // Lowest-priority-style arbitration: round-robin, but skip
        // cores in deep idle when an awake core exists (hardware
        // avoids waking CC6 cores for interrupt delivery when it
        // can). Distribution stays even across the awake set.
        const int n = kernel_.numCores();
        for (int tried = 0; tried < n; ++tried) {
            const int candidate = rr_next_core_;
            rr_next_core_ = (rr_next_core_ + 1) % n;
            if (!kernel_.core(candidate).asleepOrWaking())
                return candidate;
        }
        const int target = rr_next_core_;
        rr_next_core_ = (rr_next_core_ + 1) % n;
        return target;
      }
    }
    panic("Iommu: unknown steering policy");
}

std::vector<SsrRequest>
Iommu::drain()
{
    std::vector<SsrRequest> out;
    out.reserve(ppr_queue_.size());
    while (!ppr_queue_.empty()) {
        out.push_back(std::move(ppr_queue_.front()));
        ppr_queue_.pop_front();
    }
    return out;
}

void
Iommu::ack()
{
    msi_inflight_ = false;
    // PPRs that arrived while the interrupt was being handled need a
    // fresh MSI.
    considerRaiseMsi();
}

void
Iommu::fire(const snap::Tag &tag)
{
    const snap::Token &t = tag.self;
    switch (tag.site) {
      case kHit:
        complete(tag.arg, TranslateResult::Ok);
        return;
      case kWalk:
        finishWalk(t.a, tag.arg, t.c != 0, static_cast<Pasid>(t.b));
        return;
      case kCoalesce:
        coalesce_event_ = kInvalidEventId;
        if (!ppr_queue_.empty() && !msi_inflight_)
            raiseMsi();
        return;
      case kMsiWatchdog:
        if (msi_inflight_) {
            msi_inflight_ = false;
            ++msi_recoveries_;
            considerRaiseMsi();
        }
        return;
      case kMsiDup:
        kernel_.deliverIrq(pickTargetCore(), driver_->makeInterrupt());
        return;
      case kMsi:
        kernel_.deliverIrq(static_cast<int>(t.a), driver_->makeInterrupt());
        return;
    }
}

void
Iommu::snapSave(snap::Writer &w) const
{
    if (callable_inflight_ != 0)
        throw snap::SnapshotError(
            "cannot snapshot: " + std::to_string(callable_inflight_)
            + " IOMMU translation(s) issued with a plain callable ('"
            + kCallableKind + "') are in flight");
    w.section("iommu");
    // Only the FIFO ring is IOTLB state; snapRestore rebuilds the
    // probe table from it, so the format does not depend on the hash.
    w.u64(iotlb_ring_.size());
    for (const Vpn v : iotlb_ring_)
        w.u64(v);
    w.u32(iotlb_head_);
    w.u32(iotlb_size_);
    w.u64(ppr_queue_.size());
    for (const SsrRequest &request : ppr_queue_)
        snapSaveRequest(w, request);
    w.u64(last_ppr_at_);
    w.u64(ppr_gap_ema_);
    w.b(msi_inflight_);
    w.u64(coalesce_event_);
    w.u64(static_cast<std::uint64_t>(rr_next_core_));
    w.u64(next_request_id_);
    w.u64(pprs_issued_);
    w.u64(msis_raised_);
    w.u64(iotlb_hits_);
    w.u64(iotlb_misses_);
    w.u64(faults_resolved_);
    w.u64(pprs_rejected_);
    w.u64(faults_aborted_);
    w.u64(msi_recoveries_);
}

void
Iommu::snapRestore(snap::Reader &r)
{
    r.section("iommu");
    callable_inflight_ = 0;
    if (r.u64() != iotlb_ring_.size())
        throw snap::SnapshotError("IOTLB capacity mismatch");
    for (Vpn &v : iotlb_ring_)
        v = r.u64();
    iotlb_head_ = r.u32();
    iotlb_size_ = r.u32();
    if (iotlb_head_ >= params_.iotlb_entries
        || iotlb_size_ > params_.iotlb_entries)
        throw snap::SnapshotError("IOTLB ring cursor out of range");
    // Rebuild the probe table by re-inserting the resident VPNs in
    // FIFO order. Its layout may differ from the saved run's, but
    // lookups depend only on which VPNs are resident.
    std::fill(iotlb_slots_.begin(), iotlb_slots_.end(), Vpn{0});
    for (std::uint32_t k = 0, at = iotlb_head_; k < iotlb_size_; ++k) {
        placeIotlb(iotlb_ring_[at]);
        at = at + 1 == params_.iotlb_entries ? 0 : at + 1;
    }
    ppr_queue_.clear();
    const std::uint64_t queued = r.u64();
    for (std::uint64_t i = 0; i < queued; ++i) {
        ppr_queue_.push_back(snapRestoreRequest(
            r, [this](SsrRequest &request) {
                rebuildRequestCallbacks(request);
            }));
    }
    last_ppr_at_ = r.u64();
    ppr_gap_ema_ = r.u64();
    msi_inflight_ = r.b();
    coalesce_event_ = r.u64();
    rr_next_core_ = static_cast<int>(r.u64());
    next_request_id_ = r.u64();
    pprs_issued_ = r.u64();
    msis_raised_ = r.u64();
    iotlb_hits_ = r.u64();
    iotlb_misses_ = r.u64();
    faults_resolved_ = r.u64();
    pprs_rejected_ = r.u64();
    faults_aborted_ = r.u64();
    msi_recoveries_ = r.u64();
}

} // namespace hiss
