/**
 * @file
 * Crash-resumable campaign orchestrator.
 *
 * A campaign is a directory:
 *
 *   <dir>/manifest.jsonl        the grid (campaign/manifest.h)
 *   <dir>/cache/<hex16>.rec     per-cell results (result_cache.h)
 *   <dir>/ledger.shard<k>.jsonl per-shard append-only event log
 *
 * Cells stream through one worker pool (ExperimentBatch::stream) and
 * settle one by one: the moment a cell finishes, its ledger line is
 * appended and its record stored (or the cell is queued for the next
 * retry wave), while the other workers keep running. No cell waits
 * for a slower one before its record lands.
 *
 * The invariant the layout buys: a shard killed at any instant —
 * SIGKILL included — leaves only complete artifacts (manifest and
 * records are write-then-rename; the ledger is append-only and
 * tolerated torn) and loses at most the cells in flight, so a resume
 * simply scans the cache and runs the cells whose records are missing
 * or damaged. Because each cell is
 * deterministic, the merged output of "run, crash, resume" is
 * byte-identical to an uninterrupted run.
 *
 * Containment keeps one pathological cell from sinking a sweep:
 * GridSpec::tick_budget_ms caps simulated time deterministically
 * inside the run, failures retry in waves with exponential backoff
 * (BackoffPolicy, src/os/qos_governor.h), and cells whose host wall
 * time exceeds CampaignOptions::wall_budget_ms are not retried —
 * their failure stays in the ledger only, so a later resume (maybe on
 * a faster machine) tries again. Deterministic failures that exhaust
 * their retries ARE cached (ok=false + reason + repro line), so
 * merges stay complete and resumes do not loop on them.
 */

#ifndef HISS_CAMPAIGN_CAMPAIGN_H_
#define HISS_CAMPAIGN_CAMPAIGN_H_

#include <cstddef>
#include <string>

#include "campaign/manifest.h"
#include "campaign/result_cache.h"

namespace hiss {
namespace campaign {

/** Run-time knobs for one CampaignEngine::run invocation. */
struct CampaignOptions
{
    /**
     * Worker threads of the pool each retry wave streams its cells
     * through; at most this many cells are in flight, and each
     * settles (ledger line, then record) as it finishes. <= 0 =
     * hardware concurrency.
     */
    int jobs = 0;

    /** This process owns cells with index % shard_count == shard_index. */
    int shard_index = 0;
    int shard_count = 1;

    /** Attempts per failing cell before its failure is cached. */
    int max_attempts = 3;

    /**
     * Host wall-clock budget per cell, ms (0 = unlimited). A cell
     * whose attempt exceeded this is not retried this run and its
     * failure is not cached — the ledger records the timeout and a
     * future resume tries again.
     */
    double wall_budget_ms = 0.0;

    /** Re-run cells whose cached record is a failure. */
    bool retry_failed = false;
};

/** What one CampaignEngine::run did. */
struct CampaignReport
{
    std::size_t total = 0;        ///< Cells in the manifest.
    std::size_t owned = 0;        ///< Cells this shard owns.
    std::size_t cached_hits = 0;  ///< Owned cells served from cache.
    std::size_t executed = 0;     ///< Owned cells actually simulated.
    std::size_t failures = 0;     ///< Owned cells whose final outcome failed.
    std::size_t corrupt_rerun = 0; ///< Damaged records detected and re-run.
};

/** Cache coverage of the whole grid (CampaignEngine::status). */
struct CampaignStatus
{
    std::size_t total = 0;
    std::size_t cached_ok = 0;
    std::size_t cached_failed = 0;
    std::size_t corrupt = 0;
    std::size_t missing = 0;

    bool complete() const { return corrupt == 0 && missing == 0; }
};

/** Orchestrates a sharded, resumable sweep over one campaign dir. */
class CampaignEngine
{
  public:
    explicit CampaignEngine(std::string dir);

    const std::string &dir() const { return dir_; }

    /** Path of the result cache under the campaign dir. */
    std::string cacheDir() const { return dir_ + "/cache"; }

    /**
     * Enumerate @p spec's grid and atomically write the manifest.
     * Safe to call on an existing campaign only with an identical
     * spec (keys are content-addressed, so records stay valid).
     */
    void build(const GridSpec &spec) const;

    /**
     * Run (or resume) this shard's share of the grid: scan the cache,
     * re-run missing/corrupt cells in retry waves, and store every
     * settled outcome the moment its cell finishes. Idempotent — a
     * second call with a warm cache executes nothing. A record-store
     * or ledger failure on a worker stops the wave and is rethrown
     * here, on the calling thread.
     */
    CampaignReport run(const CampaignOptions &options) const;

    /** Cache coverage of the full grid, without running anything. */
    CampaignStatus status() const;

    /**
     * Stream every cell's record, in manifest index order, into one
     * CSV at @p out_path (write-then-rename). @returns rows written.
     * @throws FatalError if any cell's record is missing or damaged —
     * merge never papers over an incomplete campaign.
     */
    std::size_t merge(const std::string &out_path) const;

    /** The merged CSV header row (schema lives in one place). */
    static std::string csvHeader();

  private:
    std::string dir_;
};

} // namespace campaign
} // namespace hiss

#endif // HISS_CAMPAIGN_CAMPAIGN_H_
