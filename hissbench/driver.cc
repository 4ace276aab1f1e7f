/**
 * @file
 * Benchmark driver for the grid workloads (interference, baseline,
 * ssr_campaign). run.py builds and invokes it; every line it prints
 * on stdout is one JSON object:
 *
 *   {"type":"fingerprint", ...}   host + build identity
 *   {"type":"pass", ...}          one measured pass (one seed)
 *   {"type":"trace", ...}         --trace: per-layer metrics
 *   {"type":"end", ...}           peak RSS of this process
 *
 * A pass runs the workload's whole grid through the library's public
 * entry points (ExperimentBatch::runCatching, or CampaignEngine
 * build/run/run/merge) and digests every RunResult field of every
 * cell; run.py compares the digest with the committed reference.
 *
 * The traced run additionally mirrors every cell on a HeteroSystem
 * built here, with spans around build/run/extract and exact counters
 * read through public accessors, then replays the hot layer entry
 * points (event queue, stream fill + cache/predictor batch, IOMMU
 * translate, result-cache store/lookup) in isolation.
 *
 * Usage:
 *   hissbench_driver --workload NAME --seed N --seconds S --jobs J
 *                    --tmp DIR [--trace]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "campaign/campaign.h"
#include "campaign/manifest.h"
#include "campaign/result_cache.h"
#include "core/cell_key.h"
#include "core/experiment_batch.h"
#include "core/system.h"
#include "mem/address_stream.h"
#include "mem/branch_predictor.h"
#include "mem/cache.h"
#include "sim/event_queue.h"
#include "workloads/gpu_suite.h"
#include "workloads/parsec.h"

namespace {

using namespace hiss;
using Steady = std::chrono::steady_clock;

/**
 * Committed references cover simulation seeds 1..kReferenceSeeds.
 * Pass k of a run with --seed s simulates seed 1 + (s + k) % 16, so
 * every pass of every run is checked against a reference.
 */
constexpr std::uint64_t kReferenceSeeds = 16;

/** Replay sizes: per-cell mean op count, clamped to this range. */
constexpr std::uint64_t kReplayMin = 1ULL << 16;
constexpr std::uint64_t kReplayMax = 1ULL << 22;

/**
 * A set-up takes microseconds (milliseconds for a campaign build), so
 * one sample is mostly cache and scheduler noise. Each pass times this
 * many set-ups, the last of them the one it runs, and reports their
 * median.
 */
constexpr int kSetupSamples = 9;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int jobs = 1;
    std::string tmp;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "hissbench_driver: %s\n", why.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::stoull(value());
        else if (arg == "--seconds")
            o.seconds = std::stod(value());
        else if (arg == "--jobs")
            o.jobs = std::stoi(value());
        else if (arg == "--tmp")
            o.tmp = value();
        else if (arg == "--trace")
            o.trace = true;
        else
            usage("unknown argument " + arg);
    }
    if (o.workload != "interference" && o.workload != "baseline"
        && o.workload != "ssr_campaign")
        usage("unknown workload '" + o.workload + "'");
    if (o.tmp.empty() || o.jobs < 1 || o.seconds <= 0.0)
        usage("--tmp, --jobs >= 1 and --seconds > 0 are required");
    return o;
}

double
secondsSince(Steady::time_point t0)
{
    return std::chrono::duration<double>(Steady::now() - t0).count();
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
nsSince(Steady::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Steady::now() - t0)
        .count();
}

/** User + system CPU seconds of this process (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    return "\"" + campaign::jsonEscape(s) + "\"";
}

/** 64-bit FNV-1a over the canonical text of every cell's result. */
class Digest
{
  public:
    void
    add(const std::string &text)
    {
        for (const unsigned char c : text) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Every RunResult field, doubles as exact hex floats. */
std::string
outcomeText(const CellOutcome &o)
{
    if (!o.ok)
        return "error=" + o.error + "\n";
    const RunResult &r = o.result;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "cap=%d elapsed=%a cpu=%a gpu=%a rate=%a cc6=%a l1d=%a br=%a "
        "ssr=%a irqs=%" PRIu64 " ipis=%" PRIu64 " ssr_irqs=%" PRIu64
        " faults=%" PRIu64 " msis=%" PRIu64 " aborted=%" PRIu64 " per_core=",
        r.hit_time_cap ? 1 : 0, r.elapsed_ms, r.cpu_runtime_ms,
        r.gpu_runtime_ms, r.gpu_ssr_rate, r.cc6_fraction,
        r.user_l1d_miss_rate, r.user_branch_miss_rate, r.ssr_cpu_fraction,
        r.total_irqs, r.total_ipis, r.ssr_interrupts, r.faults_resolved,
        r.msis_raised, r.aborted_wavefronts);
    std::string text = buf;
    for (const std::uint64_t c : r.ssr_irqs_per_core)
        text += std::to_string(c) + ";";
    return text + "\n";
}

std::uint64_t
simSeed(const Options &o, std::uint64_t pass)
{
    return 1 + (o.seed + pass) % kReferenceSeeds;
}

/// @name Workload grids.
/// @{
ExperimentConfig
cellConfig(std::uint64_t seed, bool demand_paging)
{
    ExperimentConfig c;
    c.seed = seed;
    c.gpu_demand_paging = demand_paging;
    return c;
}

/** fig3a/fig5 shape: every PARSEC app under every GPU app. */
std::vector<ExperimentCell>
interferenceCells(std::uint64_t seed)
{
    std::vector<ExperimentCell> cells;
    for (const auto &cpu : parsec::benchmarkNames())
        for (const auto &gpu : gpu_suite::workloadNames())
            cells.push_back({cpu, gpu, cellConfig(seed, true),
                             MeasureMode::CpuPrimary, 1});
    return cells;
}

/** The pinned "no SSR" denominators of fig3a/7/12 and fig3b/4. */
std::vector<ExperimentCell>
baselineCells(std::uint64_t seed)
{
    std::vector<ExperimentCell> cells;
    for (const auto &cpu : parsec::benchmarkNames())
        cells.push_back({cpu, "ubench", cellConfig(seed, false),
                         MeasureMode::CpuPrimary, 1});
    for (const auto &gpu : gpu_suite::workloadNames())
        cells.push_back({"", gpu, cellConfig(seed, false),
                         MeasureMode::GpuOnly, 1});
    return cells;
}

campaign::GridSpec
campaignSpec(std::uint64_t seed)
{
    campaign::GridSpec spec;
    spec.name = "hissbench";
    spec.cpu_apps = {""};
    spec.gpu_apps = gpu_suite::workloadNames();
    spec.seeds = {seed};
    spec.all_mitigations = true;
    spec.qos_thresholds = {0.0, 0.25, 0.05, 0.01};
    spec.duration_ms = 40.0;
    return spec;
}

std::vector<ExperimentCell>
workloadCells(const Options &o, std::uint64_t seed)
{
    if (o.workload == "interference")
        return interferenceCells(seed);
    if (o.workload == "baseline")
        return baselineCells(seed);
    return campaignSpec(seed).buildCells();
}
/// @}

/** What one measured pass produced. */
struct Pass
{
    std::uint64_t sim_seed = 0;
    /**
     * Before the first cell is handed to the library: grid enumeration
     * and ExperimentBatch construction, or for ssr_campaign the
     * CampaignEngine build of the manifest. Median of kSetupSamples.
     */
    double setup_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double execute_s = 0.0; ///< Cold execution of the cells alone.
    double resume_s = 0.0;
    double campaign_build_ms = 0.0;
    double merge_ms = 0.0;
    std::size_t cold_executed = 0;
    std::size_t resume_cached_hits = 0;
    std::vector<double> cell_ms;
    std::vector<CellOutcome> outcomes;
    std::vector<std::string> keys;       ///< ssr_campaign record keys.
    std::vector<std::string> canonicals; ///< ssr_campaign cell texts.
    std::size_t failed = 0;
    std::vector<std::string> errors;
    std::string digest;
};

void
fail(Pass &p, const std::string &why)
{
    ++p.failed;
    if (p.errors.size() < 8)
        p.errors.push_back(why);
}

/** Count a cell as failed if it threw or hit the simulated-time cap. */
void
judgeOutcomes(Pass &p)
{
    Digest digest;
    for (std::size_t i = 0; i < p.outcomes.size(); ++i) {
        const CellOutcome &o = p.outcomes[i];
        if (!o.ok)
            fail(p, "cell " + std::to_string(i) + ": " + o.error);
        else if (o.result.hit_time_cap)
            fail(p, "cell " + std::to_string(i) + " hit the time cap");
        digest.add(outcomeText(o));
    }
    p.digest = digest.hex();
}

Pass
runBatchPass(const Options &o, std::uint64_t seed)
{
    Pass p;
    p.sim_seed = seed;
    std::vector<double> setups;
    for (int r = 1; r < kSetupSamples; ++r) {
        const auto ts = Steady::now();
        const std::vector<ExperimentCell> cells = workloadCells(o, seed);
        const ExperimentBatch batch(o.jobs);
        setups.push_back(secondsSince(ts));
    }

    const auto t0 = Steady::now();
    const double cpu0 = cpuSeconds();
    const std::vector<ExperimentCell> cells = workloadCells(o, seed);
    const ExperimentBatch batch(o.jobs);
    setups.push_back(secondsSince(t0));
    p.setup_s = median(setups);
    p.outcomes = batch.runCatching(cells);
    p.wall_s = secondsSince(t0);
    p.execute_s = p.wall_s - setups.back();
    p.cpu_s = cpuSeconds() - cpu0;
    for (const CellOutcome &c : p.outcomes)
        p.cell_ms.push_back(c.wall_ms);
    judgeOutcomes(p);
    return p;
}

/** Per-cell host ms of the cold pass, from the campaign ledger. */
std::vector<double>
ledgerCellMs(const std::string &dir)
{
    std::vector<double> ms;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("ledger.", 0) != 0)
            continue;
        std::ifstream in(entry.path());
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("\"type\":\"attempt\"") == std::string::npos)
                continue;
            const std::size_t at = line.find("\"wall_ms\":");
            if (at != std::string::npos)
                ms.push_back(std::strtod(line.c_str() + at + 10, nullptr));
        }
    }
    return ms;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

Pass
runCampaignPass(const Options &o, std::uint64_t seed, std::uint64_t index)
{
    Pass p;
    p.sim_seed = seed;
    const std::string dir = o.tmp + "/campaign." + std::to_string(index);
    if (std::filesystem::exists(dir))
        throw std::runtime_error("campaign dir not fresh: " + dir);
    std::vector<double> setups;
    for (int r = 1; r < kSetupSamples; ++r) {
        const std::string scratch = dir + ".setup" + std::to_string(r);
        const auto ts = Steady::now();
        const campaign::CampaignEngine engine(scratch);
        engine.build(campaignSpec(seed));
        setups.push_back(secondsSince(ts));
        std::filesystem::remove_all(scratch);
    }

    const auto t0 = Steady::now();
    const double cpu0 = cpuSeconds();
    const campaign::GridSpec spec = campaignSpec(seed);
    const campaign::CampaignEngine engine(dir);
    engine.build(spec);
    setups.push_back(secondsSince(t0));
    p.setup_s = median(setups);
    p.campaign_build_ms = 1e3 * setups.back();

    campaign::CampaignOptions options;
    options.jobs = o.jobs;
    const campaign::CampaignReport cold = engine.run(options);
    const auto t_resume = Steady::now();
    p.execute_s = secondsSince(t0) - setups.back();
    const campaign::CampaignReport resumed = engine.run(options);
    const auto t_merge = Steady::now();
    const std::string csv_path = dir + "/merged.csv";
    const std::size_t rows = engine.merge(csv_path);
    p.merge_ms = 1e3 * secondsSince(t_merge);
    p.resume_s = secondsSince(t_resume);
    p.wall_s = secondsSince(t0);
    p.cpu_s = cpuSeconds() - cpu0;

    // Cold-start isolation: nothing may be remembered from before.
    p.cold_executed = cold.executed;
    p.resume_cached_hits = resumed.cached_hits;
    if (cold.executed != cold.total || cold.cached_hits != 0)
        fail(p, "cold pass executed " + std::to_string(cold.executed)
                    + " of " + std::to_string(cold.total) + " with "
                    + std::to_string(cold.cached_hits) + " cache hits");
    if (resumed.cached_hits != resumed.total || resumed.executed != 0)
        fail(p, "resume pass hit " + std::to_string(resumed.cached_hits)
                    + " of " + std::to_string(resumed.total)
                    + " and executed " + std::to_string(resumed.executed));
    if (rows != cold.total)
        fail(p, "merge wrote " + std::to_string(rows) + " rows");

    // Read every record back for the digest (outside the timed span).
    const campaign::Manifest manifest = campaign::readManifest(dir);
    const std::vector<ExperimentCell> cells =
        campaign::rebuildCells(manifest);
    const campaign::ResultCache cache(engine.cacheDir());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string canonical = canonicalCellText(cells[i]);
        const campaign::Lookup found =
            cache.lookup(manifest.cells[i].key_hex, canonical);
        CellOutcome outcome = found.outcome;
        if (found.status != campaign::LookupStatus::Hit) {
            outcome.ok = false;
            outcome.error = "record unreadable: " + found.detail;
        }
        p.outcomes.push_back(outcome);
        p.keys.push_back(manifest.cells[i].key_hex);
        p.canonicals.push_back(canonical);
    }
    p.cell_ms = ledgerCellMs(dir);
    if (p.cell_ms.size() != cells.size())
        fail(p, "ledger holds " + std::to_string(p.cell_ms.size())
                    + " attempts for " + std::to_string(cells.size())
                    + " cells");
    judgeOutcomes(p);
    Digest csv;
    csv.add(readFile(csv_path));
    p.digest += csv.hex();
    return p;
}

Pass
runPass(const Options &o, std::uint64_t seed, std::uint64_t index)
{
    return o.workload == "ssr_campaign" ? runCampaignPass(o, seed, index)
                                        : runBatchPass(o, seed);
}

void
printPass(const Pass &p, std::uint64_t index)
{
    std::string line = "{\"type\":\"pass\",\"index\":"
        + std::to_string(index)
        + ",\"sim_seed\":" + std::to_string(p.sim_seed)
        + ",\"setup_s\":" + jsonNumber(p.setup_s)
        + ",\"wall_s\":" + jsonNumber(p.wall_s)
        + ",\"cpu_s\":" + jsonNumber(p.cpu_s)
        + ",\"resume_s\":" + jsonNumber(p.resume_s)
        + ",\"attempted\":" + std::to_string(p.outcomes.size())
        + ",\"failed\":" + std::to_string(p.failed)
        + ",\"digest\":" + jsonString(p.digest) + ",\"cell_ms\":[";
    for (std::size_t i = 0; i < p.cell_ms.size(); ++i)
        line += (i ? "," : "") + jsonNumber(p.cell_ms[i]);
    line += "],\"errors\":[";
    for (std::size_t i = 0; i < p.errors.size(); ++i)
        line += (i ? "," : "") + jsonString(p.errors[i]);
    line += "]}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/// @name Traced mirror of one cell.
/// @{

/** Exact counters and host spans of one mirrored cell. */
struct Mirror
{
    bool ok = false;
    std::string error;

    // Simulated outcomes compared against the untraced run.
    double cpu_runtime_ms = 0.0;
    double gpu_runtime_ms = 0.0;
    std::uint64_t faults_resolved = 0;
    std::uint64_t msis = 0;
    std::uint64_t irqs = 0;

    // Host spans, ns.
    double build_ns = 0.0;
    double run_ns = 0.0;
    double extract_ns = 0.0;

    // Layer counters.
    std::uint64_t events = 0;
    std::uint64_t l1d_accesses = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t ipis = 0;
    std::uint64_t ctx_switches = 0;
    double cc6_fraction = 0.0;
    std::uint64_t iotlb_hits = 0;
    std::uint64_t iotlb_misses = 0;
    std::uint64_t pprs = 0;
    std::uint64_t ssr_requests = 0;
    std::uint64_t wq_items = 0;
    std::uint64_t chunks = 0;
    double stall_ms = 0.0;
};

/**
 * The cell as ExperimentRunner runs it, driven through HeteroSystem.
 * Covers the CpuPrimary and GpuOnly cells the workloads use; the
 * comparison with the untraced run catches any divergence.
 */
Mirror
mirrorCell(const ExperimentCell &cell)
{
    Mirror m;
    const ExperimentConfig &cfg = cell.config;
    const auto t_build = Steady::now();
    SystemConfig sys_config;
    sys_config.seed = cfg.seed;
    sys_config.applyMitigations(cfg.mitigation);
    if (cfg.qos_threshold > 0.0)
        sys_config.enableQos(cfg.qos_threshold);
    sys_config.check_invariants = false;
    HeteroSystem sys(sys_config);

    CpuApp *app = nullptr;
    if (!cell.cpu_app.empty()) {
        app = &sys.addCpuApp(parsec::params(cell.cpu_app));
        app->start();
    }
    const bool rate_based = cell.gpu_app == "ubench";
    if (!cell.gpu_app.empty()) {
        const bool loop =
            cell.mode == MeasureMode::CpuPrimary || rate_based;
        sys.launchGpu(gpu_suite::params(cell.gpu_app),
                      cfg.gpu_demand_paging, loop);
    }
    m.build_ns = nsSince(t_build);

    const auto t_run = Steady::now();
    Gpu &gpu = sys.gpu();
    if (app != nullptr) {
        sys.runUntilCondition([app] { return app->done(); },
                              cfg.max_sim_time);
    } else if (rate_based) {
        sys.runUntil(cfg.rate_window);
    } else {
        sys.runUntilCondition(
            [&gpu] { return gpu.kernelsCompleted() >= 1; },
            cfg.max_sim_time);
    }
    m.run_ns = nsSince(t_run);

    const auto t_extract = Steady::now();
    sys.finalizeStats();
    const Tick elapsed = sys.now();
    if (app != nullptr)
        m.cpu_runtime_ms = app->done() ? ticksToMs(app->completionTime())
                                       : ticksToMs(elapsed);
    else
        m.gpu_runtime_ms = rate_based ? ticksToMs(cfg.rate_window)
            : gpu.kernelsCompleted() >= 1
                ? ticksToMs(gpu.firstCompletionTime())
                : ticksToMs(elapsed);
    m.events = sys.events().numExecuted();
    Kernel &kernel = sys.kernel();
    for (int i = 0; i < kernel.numCores(); ++i) {
        CpuCore &core = kernel.core(i);
        m.irqs += core.irqCount();
        m.ipis += core.ipiCount();
        m.l1d_accesses += core.l1d().accesses();
        m.l1d_misses += core.l1d().misses();
        m.branches += core.branchPredictor().lookups();
        m.mispredicts += core.branchPredictor().mispredicts();
        m.ctx_switches += static_cast<std::uint64_t>(
            sys.stats().valueOf(core.name() + ".ctx_switches"));
        if (elapsed > 0)
            m.cc6_fraction += static_cast<double>(core.cc6Ticks())
                / static_cast<double>(elapsed) / kernel.numCores();
    }
    Iommu &iommu = sys.iommu();
    m.msis = iommu.msisRaised();
    m.iotlb_hits = iommu.iotlbHits();
    m.iotlb_misses = iommu.iotlbMisses();
    m.pprs = iommu.pprsIssued();
    m.ssr_requests = sys.ssrDriver().requestsDrained()
        + sys.signalDriver().requestsDrained();
    m.wq_items = kernel.workQueue().completed();
    m.faults_resolved = gpu.faultsResolved();
    m.chunks = gpu.chunksCompleted();
    m.stall_ms = ticksToMs(gpu.stallTicks());
    m.extract_ns = nsSince(t_extract);
    m.ok = true;
    return m;
}

/** Mirror every cell on min(jobs, cells) worker threads. */
std::vector<Mirror>
mirrorAll(const std::vector<ExperimentCell> &cells, int jobs)
{
    std::vector<Mirror> out(cells.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < cells.size(); i = next++) {
            try {
                out[i] = mirrorCell(cells[i]);
            } catch (const std::exception &e) {
                out[i].error = e.what();
            }
        }
    };
    std::vector<std::thread> pool;
    const std::size_t n =
        std::min(cells.size(), static_cast<std::size_t>(jobs));
    for (std::size_t i = 1; i < n; ++i)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    return out;
}
/// @}

/// @name Replays of single layers.
/// @{

/** Small deterministic generator for replay inputs. */
struct SplitMix
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
};

std::uint64_t
replaySize(std::uint64_t total, std::size_t cells)
{
    const std::uint64_t per_cell = cells ? total / cells : 0;
    return std::clamp(per_cell, kReplayMin, kReplayMax);
}

/**
 * EventQueue::schedule + step: @p n events, each rescheduling one
 * successor a pseudo-random delay ahead, with 64 chains in flight.
 */
double
replayEvents(std::uint64_t n, std::uint64_t seed)
{
    struct Ctx
    {
        EventQueue queue;
        SplitMix rng;
        std::uint64_t left;
    };
    struct Hop
    {
        Ctx *ctx;
        void
        operator()() const
        {
            if (ctx->left == 0)
                return;
            --ctx->left;
            ctx->queue.scheduleAfter(1 + (ctx->rng.next() & 4095), Hop{ctx});
        }
    };
    Ctx ctx{{}, SplitMix{seed}, n};
    const auto t0 = Steady::now();
    for (int i = 0; i < 64; ++i)
        ctx.queue.schedule(1 + (ctx.rng.next() & 4095), Hop{&ctx});
    while (ctx.queue.step()) {
    }
    return nsSince(t0) / static_cast<double>(ctx.queue.numExecuted());
}

std::vector<CpuAppParams>
cpuApps(const std::vector<ExperimentCell> &cells)
{
    std::vector<CpuAppParams> apps;
    for (const auto &name : parsec::benchmarkNames())
        for (const ExperimentCell &c : cells)
            if (c.cpu_app == name) {
                apps.push_back(parsec::params(name));
                break;
            }
    if (apps.empty()) // GPU-only grids: the default stream profiles.
        apps.push_back(CpuAppParams{});
    return apps;
}

/** AddressStream::fill + Cache::accessBatch in burst-sized samples. */
double
replayAccesses(const std::vector<CpuAppParams> &apps, std::uint64_t n,
               std::uint64_t seed, std::uint64_t &sink)
{
    const CacheParams l1d = CpuCoreParams{}.l1d;
    const std::uint64_t per_app = n / apps.size() + 1;
    std::uint64_t done = 0;
    const auto t0 = Steady::now();
    for (std::size_t a = 0; a < apps.size(); ++a) {
        AddressStream stream(apps[a].mem, 0x10000000ULL * (a + 1),
                             seed + a);
        Cache cache(l1d);
        std::vector<Addr> buf(std::max<std::uint32_t>(
            apps[a].sample_accesses, 1));
        for (std::uint64_t i = 0; i < per_app; i += buf.size()) {
            stream.fill(buf.data(), buf.size());
            sink += cache.accessBatch(buf.data(), buf.size());
            done += buf.size();
        }
    }
    return nsSince(t0) / static_cast<double>(done);
}

/** BranchStream::fill + BranchPredictor::predictBatch likewise. */
double
replayBranches(const std::vector<CpuAppParams> &apps, std::uint64_t n,
               std::uint64_t seed, std::uint64_t &sink)
{
    const BranchPredictorParams bp = CpuCoreParams{}.bp;
    const std::uint64_t per_app = n / apps.size() + 1;
    std::uint64_t done = 0;
    const auto t0 = Steady::now();
    for (std::size_t a = 0; a < apps.size(); ++a) {
        BranchStream stream(apps[a].branch, 0x40000000ULL * (a + 1),
                            seed + a);
        BranchPredictor predictor(bp);
        std::vector<BranchOutcome> buf(std::max<std::uint32_t>(
            apps[a].sample_branches, 1));
        for (std::uint64_t i = 0; i < per_app; i += buf.size()) {
            stream.fill(buf.data(), buf.size());
            sink += predictor.predictBatch(buf.data(), buf.size());
            done += buf.size();
        }
    }
    return nsSince(t0) / static_cast<double>(done);
}

/**
 * Iommu::translate on a built system, pinned (no PPRs), over the
 * workload's GPU page footprints, 8 requests per chunk with the
 * queue advanced past the walk latency between chunks.
 */
double
replayTranslates(const std::vector<ExperimentCell> &cells,
                 std::uint64_t n, std::uint64_t seed)
{
    std::vector<std::uint64_t> footprints;
    for (const auto &name : gpu_suite::workloadNames())
        for (const ExperimentCell &c : cells)
            if (c.gpu_app == name) {
                footprints.push_back(
                    std::max<std::uint64_t>(gpu_suite::params(name).pages, 1));
                break;
            }
    SystemConfig config;
    config.seed = seed;
    config.check_invariants = false;
    HeteroSystem sys(config);
    Iommu &iommu = sys.iommu();
    const Tick step = iommu.params().walk_latency
        + iommu.params().iotlb_hit_latency + 1;
    SplitMix rng{seed};
    std::uint64_t resolved = 0;
    const auto t0 = Steady::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t pages = footprints[i % footprints.size()];
        const Vpn vpn = 0x100000ULL * (1 + i % footprints.size())
            + rng.next() % pages;
        iommu.translate(vpn, [&resolved](TranslateResult) { ++resolved; },
                        false);
        if (i % 8 == 7)
            sys.runUntil(sys.now() + step);
    }
    sys.runUntil(sys.now() + step);
    const double ns = nsSince(t0);
    if (resolved != n)
        throw std::runtime_error("translate replay resolved "
                                 + std::to_string(resolved) + " of "
                                 + std::to_string(n));
    return ns / static_cast<double>(n);
}
/// @}

/** Metrics of the traced run, printed in this order. */
struct TraceMetrics
{
    std::vector<std::pair<std::string, double>> values;

    void
    set(const std::string &name, double v)
    {
        values.emplace_back(name, v);
    }

    void
    print() const
    {
        std::string line = "{\"type\":\"trace\",\"metrics\":{";
        for (std::size_t i = 0; i < values.size(); ++i)
            line += (i ? "," : "") + jsonString(values[i].first) + ":"
                + jsonNumber(values[i].second);
        line += "}}";
        std::printf("%s\n", line.c_str());
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The traced run: two untraced passes of one seed, then the same cells
 * mirrored with spans and counters, then the layer replays. The first
 * pass only warms the process (its first touch of fresh memory is
 * slower), so the overhead ratio compares warm against warm.
 */
void
runTraced(const Options &o)
{
    const std::uint64_t seed = simSeed(o, 0);
    printPass(runPass(o, seed, 0), 0);
    Pass untraced = runPass(o, seed, 1);
    const std::vector<ExperimentCell> cells = workloadCells(o, seed);

    const auto t0 = Steady::now();
    const std::vector<Mirror> mirrors = mirrorAll(cells, o.jobs);
    const double traced_wall = secondsSince(t0);

    // The mirrored cells must be the same cells.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Mirror &m = mirrors[i];
        const CellOutcome &u = untraced.outcomes[i];
        const bool same = m.ok && u.ok
            && m.cpu_runtime_ms == u.result.cpu_runtime_ms
            && m.gpu_runtime_ms == u.result.gpu_runtime_ms
            && m.faults_resolved == u.result.faults_resolved
            && m.msis == u.result.msis_raised
            && m.irqs == u.result.total_irqs;
        if (!same) {
            fail(untraced, "traced cell " + std::to_string(i)
                               + " differs from the untraced run"
                               + (m.ok ? "" : ": " + m.error));
        }
    }

    Mirror sum;
    for (const Mirror &m : mirrors) {
        sum.build_ns += m.build_ns;
        sum.run_ns += m.run_ns;
        sum.extract_ns += m.extract_ns;
        sum.events += m.events;
        sum.l1d_accesses += m.l1d_accesses;
        sum.l1d_misses += m.l1d_misses;
        sum.branches += m.branches;
        sum.mispredicts += m.mispredicts;
        sum.irqs += m.irqs;
        sum.ipis += m.ipis;
        sum.ctx_switches += m.ctx_switches;
        sum.cc6_fraction += m.cc6_fraction / mirrors.size();
        sum.iotlb_hits += m.iotlb_hits;
        sum.iotlb_misses += m.iotlb_misses;
        sum.pprs += m.pprs;
        sum.msis += m.msis;
        sum.ssr_requests += m.ssr_requests;
        sum.wq_items += m.wq_items;
        sum.chunks += m.chunks;
        sum.faults_resolved += m.faults_resolved;
        sum.stall_ms += m.stall_ms;
    }
    const std::size_t n_cells = cells.size();
    const std::uint64_t translates = sum.iotlb_hits + sum.iotlb_misses;
    std::uint64_t sink = 0;
    const std::vector<CpuAppParams> apps = cpuApps(cells);

    TraceMetrics t;
    t.set("sim.events", static_cast<double>(sum.events));
    t.set("sim.host_ns_per_event", ratio(sum.run_ns, sum.events));
    t.set("sim.replay_ns_per_event",
          replayEvents(replaySize(sum.events, n_cells), seed));
    t.set("mem.l1d_accesses", static_cast<double>(sum.l1d_accesses));
    t.set("mem.l1d_miss_ratio", ratio(sum.l1d_misses, sum.l1d_accesses));
    t.set("mem.bp_branches", static_cast<double>(sum.branches));
    t.set("mem.bp_mispredict_ratio", ratio(sum.mispredicts, sum.branches));
    t.set("mem.replay_ns_per_access",
          replayAccesses(apps, replaySize(sum.l1d_accesses, n_cells), seed,
                         sink));
    t.set("mem.replay_ns_per_branch",
          replayBranches(apps, replaySize(sum.branches, n_cells), seed,
                         sink));
    t.set("cpu.irqs", static_cast<double>(sum.irqs));
    t.set("cpu.ipis", static_cast<double>(sum.ipis));
    t.set("cpu.ctx_switches", static_cast<double>(sum.ctx_switches));
    t.set("cpu.cc6_fraction", sum.cc6_fraction);
    t.set("iommu.translates", static_cast<double>(translates));
    t.set("iommu.iotlb_hit_ratio", ratio(sum.iotlb_hits, translates));
    t.set("iommu.pprs", static_cast<double>(sum.pprs));
    t.set("iommu.msis", static_cast<double>(sum.msis));
    t.set("iommu.replay_ns_per_translate",
          replayTranslates(cells, replaySize(translates, n_cells), seed));
    t.set("os.ssr_requests", static_cast<double>(sum.ssr_requests));
    t.set("os.wq_items", static_cast<double>(sum.wq_items));
    t.set("os.host_ns_per_ssr", ratio(sum.run_ns, sum.ssr_requests));
    t.set("gpu.chunks", static_cast<double>(sum.chunks));
    t.set("gpu.faults_resolved", static_cast<double>(sum.faults_resolved));
    t.set("gpu.stall_ms", sum.stall_ms);
    t.set("core.build_ms", 1e-6 * sum.build_ns / n_cells);
    t.set("core.run_ms", 1e-6 * sum.run_ns / n_cells);
    t.set("core.extract_ms", 1e-6 * sum.extract_ns / n_cells);
    double busy_ms = 0.0;
    for (const double ms : untraced.cell_ms)
        busy_ms += ms;
    t.set("core.pool_busy_ratio",
          ratio(1e-3 * busy_ms, untraced.execute_s * o.jobs));

    double write_us = 0.0;
    double read_us = 0.0;
    double bytes = 0.0;
    if (o.workload == "ssr_campaign") {
        // ResultCache::store / lookup of every record, timed per call.
        const campaign::ResultCache cache(o.tmp + "/record-replay");
        for (std::size_t i = 0; i < untraced.keys.size(); ++i) {
            const auto tw = Steady::now();
            cache.store(untraced.keys[i], untraced.canonicals[i],
                        untraced.outcomes[i]);
            write_us += 1e-3 * nsSince(tw);
            bytes += static_cast<double>(std::filesystem::file_size(
                cache.recordPath(untraced.keys[i])));
        }
        for (std::size_t i = 0; i < untraced.keys.size(); ++i) {
            const auto tr = Steady::now();
            const campaign::Lookup found =
                cache.lookup(untraced.keys[i], untraced.canonicals[i]);
            read_us += 1e-3 * nsSince(tr);
            if (found.status != campaign::LookupStatus::Hit)
                fail(untraced, "record replay lookup missed");
        }
        const double k = static_cast<double>(untraced.keys.size());
        write_us /= k;
        read_us /= k;
        bytes /= k;
    }
    t.set("campaign.build_ms", untraced.campaign_build_ms);
    t.set("campaign.record_write_us", write_us);
    t.set("campaign.record_read_us", read_us);
    t.set("campaign.record_bytes", bytes);
    t.set("campaign.merge_ms", untraced.merge_ms);
    t.set("campaign.executed", static_cast<double>(untraced.cold_executed));
    t.set("campaign.cached_hits",
          static_cast<double>(untraced.resume_cached_hits));
    t.set("campaign.resume_s", untraced.resume_s);
    t.set("trace.overhead_ratio", ratio(traced_wall, untraced.execute_s));
    if (sink == 0)
        fail(untraced, "mem replay saw no misses");
    printPass(untraced, 1);
    t.print();
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" ", colon + 1));
        }
    return "unknown";
}

void
printFingerprint(const Options &o)
{
    std::printf(
        "{\"type\":\"fingerprint\",\"nproc\":%u,\"cpu_model\":%s,"
        "\"compiler\":%s,\"build_type\":%s,\"hiss_simd\":%s,"
        "\"probe_kernel\":%s,\"jobs\":%d}\n",
        std::thread::hardware_concurrency(), jsonString(cpuModel()).c_str(),
        jsonString(HISSBENCH_COMPILER).c_str(),
        jsonString(HISSBENCH_BUILD_TYPE).c_str(),
        jsonString(HISSBENCH_SIMD).c_str(),
        jsonString(Cache::kernelName(Cache::activeKernel())).c_str(),
        o.jobs);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseOptions(argc, argv);
        std::filesystem::create_directories(o.tmp);
        printFingerprint(o);
        if (o.trace) {
            runTraced(o);
        } else {
            // Whole passes until the next one would overrun --seconds.
            const auto t0 = Steady::now();
            double last = 0.0;
            for (std::uint64_t k = 0;
                 k == 0 || secondsSince(t0) + last <= o.seconds; ++k) {
                const Pass p = runPass(o, simSeed(o, k), k);
                last = p.wall_s;
                printPass(p, k);
            }
        }
        std::printf("{\"type\":\"end\",\"peak_rss_mb\":%s}\n",
                    jsonNumber(peakRssMb()).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hissbench_driver: %s\n", e.what());
        return 1;
    }
}
