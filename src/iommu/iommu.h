/**
 * @file
 * IOMMU device model (paper Section II-C).
 *
 * Translates GPU virtual addresses: IOTLB hit, page-table walk, or —
 * for unmapped pages — a peripheral page request (PPR) queued for the
 * host driver, followed by an MSI to a CPU core. Implements the two
 * hardware-side mitigations from the paper:
 *
 *  - MSI steering (Section V-A): deliver all SSR interrupts to one
 *    core instead of spreading them round-robin across all cores;
 *  - interrupt coalescing (Section V-B): wait up to 13 us (the
 *    analog of PCIe register D0F2xF4_x93) accumulating PPRs before
 *    raising the interrupt.
 */

#ifndef HISS_IOMMU_IOMMU_H_
#define HISS_IOMMU_IOMMU_H_

#include <cstdint>
#include <cstring>
#include <deque>
#include <new>
#include <type_traits>
#include <vector>

#include "mem/address_space_dir.h"
#include "mem/page_table.h"
#include "os/kernel.h"
#include "os/ssr_driver.h"
#include "sim/sim_object.h"
#include "snap/snap.h"

namespace hiss {

/** How SSR MSIs are distributed over cores. */
enum class MsiSteering {
    SpreadRoundRobin, ///< Default: even spread (paper Section IV-C).
    SingleCore,       ///< Mitigation: all to one core (Section V-A).
};

/** IOMMU configuration. */
struct IommuParams
{
    MsiSteering steering = MsiSteering::SpreadRoundRobin;
    /** Target core when steering == SingleCore. */
    int steer_core = 0;

    /** Enable interrupt coalescing. */
    bool coalescing = false;
    /** Maximum coalescing wait (paper: 13 us). */
    Tick coalesce_window = usToTicks(13);
    /** Raise early once this many PPRs accumulate. */
    std::uint32_t coalesce_burst = 32;

    /**
     * Adaptive coalescing (extension, after Ahmad et al.'s vIC,
     * which the paper cites): instead of always waiting the full
     * window, wait ~4x the recent PPR inter-arrival time, capped by
     * coalesce_window. Sparse streams get near-zero added latency;
     * dense streams still batch.
     */
    bool adaptive_coalescing = false;

    /** IOTLB lookup latency. */
    Tick iotlb_hit_latency = 20;
    /** Page-table walk latency on IOTLB miss (hardware walker). */
    Tick walk_latency = 250;
    /** IOTLB capacity in entries (FIFO replacement); at most
     *  kMaxIotlbEntries. */
    std::uint32_t iotlb_entries = 64;
    /** Largest accepted iotlb_entries. Hardware IOTLBs hold tens to
     *  hundreds of entries; the bound keeps the probe-table sizing
     *  (2x capacity, rounded up to a power of two) within 32 bits. */
    static constexpr std::uint32_t kMaxIotlbEntries = 1u << 20;

    /** MSI delivery latency to the target core. */
    Tick msi_latency = 150;
};

/** How one translate() request ultimately resolved. */
enum class TranslateResult {
    Ok,       ///< Translation installed; the access may proceed.
    Rejected, ///< PPR queue overflow auto-responded INVALID (retryable).
    Aborted,  ///< Driver watchdog gave up on the request (terminal).
};

/**
 * A device that translates through the IOMMU. Each request carries a
 * token the device chose (the GPU's is "gpu.xlate" (device,
 * wavefront, count_fault)); when the translation resolves, the IOMMU
 * hands the token back to the client registered under token.a.
 */
class TranslateClient
{
  public:
    virtual ~TranslateClient() = default;

    /** The translation issued with @p token resolved as @p result. */
    virtual void translated(const snap::Token &token,
                            TranslateResult result) = 0;
};

/** The IOMMU: translation front-end and PPR/MSI back-end. */
class Iommu : public SimObject, public RequestSource
{
  public:
    /** Event sites, indexed into kSiteKinds. */
    enum Site : std::uint32_t {
        kHit, kWalk, kCoalesce, kMsiWatchdog, kMsiDup, kMsi
    };
    static constexpr const char *kSiteKinds[] = {
        "iommu.hit", "iommu.walk", "iommu.coalesce", "iommu.msiwd",
        "iommu.msidup", "iommu.msi"};

    Iommu(SimContext &ctx, Kernel &kernel, const IommuParams &params);

    const IommuParams &params() const { return params_; }

    /** Deliver completions of tokens with token.a == @p device to
     *  @p client. */
    void attachClient(std::uint64_t device, TranslateClient &client);

    /**
     * Translate @p vpn in address space @p pasid on behalf of the
     * device.
     *
     * Resolution paths: IOTLB hit; walk hit (mapped page); or — when
     * @p allow_fault — a PPR serviced by the host (the full SSR
     * chain), after which @p token goes back to its client. With
     * @p allow_fault false every walk succeeds with no host
     * involvement and no frame or page-table entry allocated (models
     * the traditional pinned-memory baseline, i.e. "no SSRs").
     */
    void translate(Vpn vpn, const snap::Token &token,
                   bool allow_fault = true, Pasid pasid = 0);

    /** Kind of the tokens translate(Vpn, F, ...) issues. */
    static constexpr char kCallableKind[] = "iommu.callable";

    /**
     * translate() with a plain callable completion, for replay
     * benchmarks: F must be trivially copyable and at most 16 bytes;
     * its bytes ride in the token's b and c words, and a per-type
     * trampoline (token.a) is the client. A snapshot is refused while
     * such a translation is in flight.
     */
    template <class F>
        requires std::is_invocable_r_v<void, F &, TranslateResult>
    void
    translate(Vpn vpn, F on_complete, bool allow_fault = true,
              Pasid pasid = 0)
    {
        static_assert(std::is_trivially_copyable_v<F>
                          && sizeof(F) <= 2 * sizeof(std::uint64_t)
                          && alignof(F) <= alignof(std::uint64_t),
                      "translate(Vpn, F): F must be trivially copyable "
                      "and fit in 16 bytes");
        std::uint64_t words[2] = {0, 0};
        std::memcpy(words, &on_complete, sizeof(F));
        ++callable_inflight_;
        translate(vpn,
                  snap::Token{kCallableKind,
                              reinterpret_cast<std::uintptr_t>(
                                  &callableClient<F>),
                              words[0], words[1]},
                  allow_fault, pasid);
    }

    /// @name RequestSource (driver-facing) interface.
    /// @{
    std::vector<SsrRequest> drain() override;
    void ack() override;
    /// @}

    /** Driver whose interrupt this IOMMU raises (set after
     *  Kernel::attachSsrSource). */
    void setDriver(SsrDriver *driver) { driver_ = driver; }

    std::uint64_t pprsIssued() const { return pprs_issued_; }
    std::uint64_t msisRaised() const { return msis_raised_; }
    std::uint64_t iotlbHits() const { return iotlb_hits_; }
    std::uint64_t iotlbMisses() const { return iotlb_misses_; }
    std::uint64_t faultsResolved() const { return faults_resolved_; }

    /** PPRs rejected by injected queue overflow (INVALID response). */
    std::uint64_t pprsRejected() const { return pprs_rejected_; }
    /** PPRs whose request the driver watchdog aborted. */
    std::uint64_t faultsAborted() const { return faults_aborted_; }
    /** Dropped MSIs re-raised by the device watchdog. */
    std::uint64_t msiRecoveries() const { return msi_recoveries_; }

    /** Current depth of the unsent-PPR queue (tests). */
    std::size_t pprQueueDepth() const { return ppr_queue_.size(); }

    void fire(const snap::Tag &tag) override;

    /// @name Snapshot support.
    /// @{
    /** Serialize the IOTLB's FIFO ring, unsent PPR queue,
     *  coalescing/MSI state, and counters.
     *  The IOTLB probe table is derived state and is not written. */
    void snapSave(snap::Writer &w) const;
    /** Mirror of snapSave; rebuilds the IOTLB probe table from the
     *  ring. */
    void snapRestore(snap::Reader &r);
    /** Re-attach this IOMMU's service callbacks to a restored PPR
     *  (its completion token travels as request.origin.arg). */
    void rebuildRequestCallbacks(SsrRequest &request);
    /// @}

  private:
    /** The client of every translate(Vpn, F) completion of type F. */
    template <class F>
    struct CallableClient : TranslateClient
    {
        void
        translated(const snap::Token &token, TranslateResult result) override
        {
            const std::uint64_t words[2] = {token.b, token.c};
            alignas(F) unsigned char bytes[sizeof(F)];
            std::memcpy(bytes, words, sizeof(F));
            (*std::launder(reinterpret_cast<F *>(bytes)))(result);
        }
    };
    template <class F>
    static inline CallableClient<F> callableClient{};

    std::uint32_t iotlbSlot(Vpn vpn) const;
    /** Install @p vpn in the probe table only; false if resident. */
    bool placeIotlb(Vpn vpn);
    void insertIotlb(Vpn vpn);
    void eraseIotlb(Vpn vpn);
    bool iotlbContains(Vpn vpn) const;
    /** Hand @p token back to its client. */
    void complete(const snap::Token &token, TranslateResult result);
    void finishWalk(Vpn vpn, const snap::Token &token, bool allow_fault,
                    Pasid pasid);
    void queuePpr(Pasid pasid, Vpn vpn, const snap::Token &token);
    void attachPprCallbacks(SsrRequest &request, const snap::Token &token);
    Tick effectiveWindow() const;
    void considerRaiseMsi();
    void raiseMsi();
    int pickTargetCore();

    Kernel &kernel_;
    AddressSpaceDirectory &spaces_;
    // HISS_STATE_EXEMPT(params_): construction config, covered by the
    // snapshot config fingerprint
    IommuParams params_;
    // HISS_STATE_EXEMPT(driver_): wiring; borrowed driver pointer
    // re-attached via setDriver during system construction
    SsrDriver *driver_ = nullptr;
    // HISS_STATE_EXEMPT(clients_): wiring; each device attaches itself
    // at construction, so a same-config restore target has the same
    // table
    std::vector<TranslateClient *> clients_;
    /** translate(Vpn, F) completions still owed; their tokens hold a
     *  host pointer, so no snapshot may be taken meanwhile. */
    std::uint64_t callable_inflight_ = 0;

    // IOTLB: FIFO-replacement set of recently used translations,
    // stored flat. iotlb_ring_ holds the resident VPNs in insertion
    // order with iotlb_head_ as the next-victim cursor, so FIFO
    // eviction is one array read instead of a list pop; the ring,
    // head and size are the IOTLB's whole state. iotlb_slots_ is a
    // membership index over the ring: a power-of-two open-addressed
    // probe table (Fibonacci hash, linear probing, backward-shift
    // deletion, load factor <= 1/2) holding vpn + 1 codes with 0
    // marking an empty slot.
    // HISS_STATE_EXEMPT(iotlb_slots_, save): derived index over
    // iotlb_ring_; lookups depend only on which VPNs are resident, and
    // snapRestore rebuilds it by re-inserting the ring in FIFO order
    std::vector<Vpn> iotlb_slots_;
    std::vector<Vpn> iotlb_ring_;
    // HISS_STATE_EXEMPT(iotlb_mask_): derived geometry (slot count - 1),
    // recomputed from params at construction
    std::uint32_t iotlb_mask_ = 0;
    // HISS_STATE_EXEMPT(iotlb_shift_): derived geometry (64 - log2 of
    // the slot count), recomputed from params at construction
    std::uint32_t iotlb_shift_ = 0;
    std::uint32_t iotlb_head_ = 0;
    std::uint32_t iotlb_size_ = 0;

    std::deque<SsrRequest> ppr_queue_;
    Tick last_ppr_at_ = 0;
    Tick ppr_gap_ema_ = usToTicks(20);
    bool msi_inflight_ = false;
    EventId coalesce_event_ = kInvalidEventId;
    int rr_next_core_ = 0;
    std::uint64_t next_request_id_ = 1;

    std::uint64_t pprs_issued_ = 0;
    std::uint64_t msis_raised_ = 0;
    std::uint64_t iotlb_hits_ = 0;
    std::uint64_t iotlb_misses_ = 0;
    std::uint64_t faults_resolved_ = 0;
    std::uint64_t pprs_rejected_ = 0;
    std::uint64_t faults_aborted_ = 0;
    std::uint64_t msi_recoveries_ = 0;
    Distribution &fault_latency_;
};

} // namespace hiss

#endif // HISS_IOMMU_IOMMU_H_
