#include "campaign/campaign.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "os/qos_governor.h"
#include "sim/logging.h"
#include "snap/snap.h"

namespace hiss {
namespace campaign {
namespace {

const char *
modeName(MeasureMode mode)
{
    switch (mode) {
      case MeasureMode::CpuPrimary: return "cpu-primary";
      case MeasureMode::GpuPrimary: return "gpu-primary";
      case MeasureMode::GpuOnly: return "gpu-only";
      case MeasureMode::CpuOnly: return "cpu-only";
    }
    return "?";
}

/** Quote a CSV field only when it needs it. */
std::string
csvField(const std::string &value)
{
    if (value.find_first_of(",\"\n") == std::string::npos)
        return value;
    std::string out = "\"";
    for (const char c : value) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

std::string
f64Field(double value)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
u64Field(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(value));
    return buf;
}

/**
 * Per-shard append-only event log. Appends are line-buffered and
 * flushed, but the ledger makes no atomicity promise — a SIGKILL can
 * tear the last line. That is fine: the ledger is diagnostic, never
 * read back to decide what to run (the cache is).
 */
class Ledger
{
  public:
    explicit Ledger(const std::string &path)
        : out_(path, std::ios::app)
    {
        if (!out_.is_open())
            fatal("campaign: cannot open ledger '%s'", path.c_str());
    }

    void
    event(const std::string &type, std::size_t index,
          const std::string &key, int attempt,
          const CellOutcome &outcome)
    {
        std::string line = "{";
        line += "\"type\":\"" + jsonEscape(type) + "\"";
        line += ",\"index\":" + u64Field(index);
        line += ",\"key\":\"" + key + "\"";
        line += ",\"attempt\":" + std::to_string(attempt);
        line += ",\"ok\":";
        line += outcome.ok ? "1" : "0";
        line += ",\"wall_ms\":" + f64Field(outcome.wall_ms);
        if (!outcome.ok) {
            line += ",\"error\":\"" + jsonEscape(outcome.error) + "\"";
            line += ",\"repro\":\"" + jsonEscape(outcome.repro) + "\"";
        }
        line += "}\n";
        out_ << line;
        out_.flush();
    }

  private:
    std::ofstream out_;
};

/** A cell this shard still has to run. */
struct PendingCell
{
    std::size_t index;
    std::string key_hex;
    std::string canonical;
};

} // namespace

CampaignEngine::CampaignEngine(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        fatal("campaign: empty campaign directory");
}

void
CampaignEngine::build(const GridSpec &spec) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("campaign: cannot create '%s': %s", dir_.c_str(),
              ec.message().c_str());
    writeManifest(dir_, spec);
}

CampaignReport
CampaignEngine::run(const CampaignOptions &options) const
{
    if (options.shard_count < 1)
        fatal("campaign: shard count must be >= 1 (got %d)",
              options.shard_count);
    if (options.shard_index < 0
        || options.shard_index >= options.shard_count)
        fatal("campaign: shard index %d out of range [0, %d)",
              options.shard_index, options.shard_count);
    if (options.max_attempts < 1)
        fatal("campaign: max attempts must be >= 1 (got %d)",
              options.max_attempts);

    const Manifest manifest = readManifest(dir_);
    const std::vector<ExperimentCell> cells = rebuildCells(manifest);
    const ResultCache cache(cacheDir());
    Ledger ledger(dir_ + "/ledger.shard"
                  + std::to_string(options.shard_index) + ".jsonl");

    CampaignReport report;
    report.total = cells.size();

    // Scan this shard's share of the cache: what is already settled,
    // what is damaged, what has never run.
    std::vector<PendingCell> pending;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (static_cast<int>(i % options.shard_count)
            != options.shard_index)
            continue;
        ++report.owned;
        PendingCell cell{i, manifest.cells[i].key_hex,
                         canonicalCellText(cells[i])};
        const Lookup found = cache.lookup(cell.key_hex, cell.canonical);
        switch (found.status) {
          case LookupStatus::Hit:
            if (!found.outcome.ok && options.retry_failed) {
                cache.remove(cell.key_hex);
                pending.push_back(std::move(cell));
            } else {
                ++report.cached_hits;
                if (!found.outcome.ok)
                    ++report.failures;
            }
            break;
          case LookupStatus::Corrupt:
            warn("campaign: damaged record for cell %zu (%s): %s — "
                 "re-running",
                 i, cell.key_hex.c_str(), found.detail.c_str());
            {
                CellOutcome note;
                note.error = found.detail;
                ledger.event("corrupt", i, cell.key_hex, 0, note);
            }
            ++report.corrupt_rerun;
            pending.push_back(std::move(cell));
            break;
          case LookupStatus::Miss:
            pending.push_back(std::move(cell));
            break;
        }
    }
    report.executed = pending.size();

    // Retry waves with exponential backoff between them. Each wave
    // streams its still-pending cells through one pool, and each
    // cell settles the moment it finishes: its ledger line is
    // appended, then its record is stored or the cell is queued for
    // the next wave. Settled records persist while the rest of the
    // wave runs, so a SIGKILL mid-wave loses at most the cells in
    // flight (at most jobs of them), never the records already
    // committed. That incremental durability is what the ci.sh
    // crash drill measures.
    const ExperimentBatch batch(options.jobs);
    BackoffPolicy backoff;
    Tick delay = 0;
    for (int attempt = 1;
         attempt <= options.max_attempts && !pending.empty();
         ++attempt) {
        if (attempt > 1) {
            delay = backoff.next(delay);
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(delay));
        }
        std::vector<ExperimentCell> wave;
        wave.reserve(pending.size());
        for (const PendingCell &cell : pending)
            wave.push_back(cells[cell.index]);
        std::vector<char> retry(pending.size(), 0);
        batch.stream(wave, [&](std::size_t j, CellOutcome &outcome) {
            const PendingCell &cell = pending[j];
            ledger.event("attempt", cell.index, cell.key_hex, attempt,
                         outcome);
            const bool over_budget = options.wall_budget_ms > 0.0
                && outcome.wall_ms > options.wall_budget_ms;
            if (outcome.ok) {
                // Over-budget successes still cache: the result is
                // deterministic and complete, just slow to obtain.
                cache.store(cell.key_hex, cell.canonical, outcome);
                if (over_budget)
                    ledger.event("wall-budget", cell.index,
                                 cell.key_hex, attempt, outcome);
            } else if (over_budget) {
                // Too expensive to retry now, and not worth pinning
                // as a permanent failure: ledger only, so a future
                // resume gets another try.
                ledger.event("wall-budget", cell.index, cell.key_hex,
                             attempt, outcome);
                ++report.failures;
            } else if (attempt == options.max_attempts) {
                cache.store(cell.key_hex, cell.canonical, outcome);
                ++report.failures;
            } else {
                retry[j] = 1;
            }
        });
        // The next wave keeps index order, whatever order cells
        // settled in.
        std::vector<PendingCell> next;
        for (std::size_t j = 0; j < pending.size(); ++j)
            if (retry[j])
                next.push_back(std::move(pending[j]));
        pending = std::move(next);
    }
    return report;
}

CampaignStatus
CampaignEngine::status() const
{
    const Manifest manifest = readManifest(dir_);
    const std::vector<ExperimentCell> cells = rebuildCells(manifest);
    const ResultCache cache(cacheDir());
    CampaignStatus out;
    out.total = cells.size();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Lookup found = cache.lookup(manifest.cells[i].key_hex,
                                          canonicalCellText(cells[i]));
        switch (found.status) {
          case LookupStatus::Hit:
            if (found.outcome.ok)
                ++out.cached_ok;
            else
                ++out.cached_failed;
            break;
          case LookupStatus::Corrupt:
            ++out.corrupt;
            break;
          case LookupStatus::Miss:
            ++out.missing;
            break;
        }
    }
    return out;
}

std::string
CampaignEngine::csvHeader()
{
    return "index,key,cpu_app,gpu_app,mode,mitigation,qos,seed,reps,"
           "ok,error,hit_time_cap,elapsed_ms,cpu_runtime_ms,"
           "gpu_runtime_ms,gpu_ssr_rate,cc6_fraction,"
           "user_l1d_miss_rate,user_branch_miss_rate,"
           "ssr_cpu_fraction,total_irqs,total_ipis,ssr_interrupts,"
           "faults_resolved,msis_raised,aborted_wavefronts,"
           "ssr_irqs_per_core";
}

std::size_t
CampaignEngine::merge(const std::string &out_path) const
{
    const Manifest manifest = readManifest(dir_);
    const std::vector<ExperimentCell> cells = rebuildCells(manifest);
    const ResultCache cache(cacheDir());

    std::string csv = csvHeader();
    csv += '\n';
    std::size_t unmerged = 0;
    std::string first_unmerged;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ExperimentCell &cell = cells[i];
        const Lookup found = cache.lookup(manifest.cells[i].key_hex,
                                          canonicalCellText(cell));
        if (found.status != LookupStatus::Hit) {
            if (unmerged++ == 0)
                first_unmerged = manifest.cells[i].key_hex + " ("
                    + manifest.cells[i].label
                    + (found.status == LookupStatus::Corrupt
                           ? ", corrupt: " + found.detail : ", missing")
                    + ")";
            continue;
        }
        const CellOutcome &o = found.outcome;
        const RunResult &r = o.result;
        std::string per_core;
        for (std::size_t c = 0; c < r.ssr_irqs_per_core.size(); ++c) {
            if (c > 0)
                per_core += ';';
            per_core += u64Field(r.ssr_irqs_per_core[c]);
        }
        csv += u64Field(i);
        csv += ',' + manifest.cells[i].key_hex;
        csv += ',' + csvField(cell.cpu_app);
        csv += ',' + csvField(cell.gpu_app);
        csv += ',' + std::string(modeName(cell.mode));
        csv += ',' + csvField(cell.config.mitigation.label());
        csv += ',' + f64Field(cell.config.qos_threshold);
        csv += ',' + u64Field(cell.config.seed);
        csv += ',' + std::to_string(cell.reps);
        csv += ',';
        csv += o.ok ? '1' : '0';
        csv += ',' + csvField(o.error);
        csv += ',';
        csv += r.hit_time_cap ? '1' : '0';
        csv += ',' + f64Field(r.elapsed_ms);
        csv += ',' + f64Field(r.cpu_runtime_ms);
        csv += ',' + f64Field(r.gpu_runtime_ms);
        csv += ',' + f64Field(r.gpu_ssr_rate);
        csv += ',' + f64Field(r.cc6_fraction);
        csv += ',' + f64Field(r.user_l1d_miss_rate);
        csv += ',' + f64Field(r.user_branch_miss_rate);
        csv += ',' + f64Field(r.ssr_cpu_fraction);
        csv += ',' + u64Field(r.total_irqs);
        csv += ',' + u64Field(r.total_ipis);
        csv += ',' + u64Field(r.ssr_interrupts);
        csv += ',' + u64Field(r.faults_resolved);
        csv += ',' + u64Field(r.msis_raised);
        csv += ',' + u64Field(r.aborted_wavefronts);
        csv += ',' + csvField(per_core);
        csv += '\n';
    }
    if (unmerged > 0)
        fatal("campaign: %zu of %zu cells have no valid record "
              "(first: %s) — run the remaining shards or resume "
              "before merging",
              unmerged, cells.size(), first_unmerged.c_str());
    try {
        snap::writeFileAtomic(out_path, csv);
    } catch (const snap::SnapshotError &e) {
        fatal("campaign: %s", e.what());
    }
    return cells.size();
}

} // namespace campaign
} // namespace hiss
