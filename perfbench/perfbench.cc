/**
 * @file
 * End-to-end benchmark program. It links the repository's libraries
 * and times calls into their public entry points from outside — the
 * serving event loop, the hybrid-parallelism planner, the
 * design-space explorer, the obs ledger functions and audits — on two
 * long, single-process workloads that each put most of their host
 * time into a different layer (README.md has the why and the
 * prediction table).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s>
 *             --trace <0|1> [--size full|tiny]
 *             [--tamper-fingerprint]
 *
 * One run sets the workload up once, then repeats the workload's unit
 * of work until --seconds have passed and reports medians over the
 * units. Before each unit a second instance of the workload is set up
 * again, for one set-up sample (setup_s is their median). Every unit is
 * checked: its obs audit must pass and its deterministic fingerprint
 * must equal the first unit's; a unit that fails either is counted
 * in "failed". --trace 1 alternates untraced and traced units and
 * reports per-layer metrics from the traced ones (src/perf spans and
 * counters plus the program's own spans) and the tracing overhead;
 * the explorer, which neither workload calls, and the estimator are
 * timed on their own after the units.
 * The last line of stdout is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "common/stats.hh"
#include "dnn/networks.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "npusim/explorer.hh"
#include "npusim/sim_cache.hh"
#include "obs/audit.hh"
#include "obs/json_writer.hh"
#include "obs/ledger.hh"
#include "partition/pipeline_sim.hh"
#include "perf/profile.hh"
#include "reliability/fault_model.hh"
#include "serving/service_model.hh"
#include "serving/simulator.hh"
#include "sfq/cells.hh"
#include "sharding/planner.hh"

using namespace supernpu;

namespace {

// --- clocks -----------------------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process user + system CPU seconds, all threads. */
double
cpuNow()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return (double)usage.ru_utime.tv_sec +
           (double)usage.ru_utime.tv_usec * 1e-6 +
           (double)usage.ru_stime.tv_sec +
           (double)usage.ru_stime.tv_usec * 1e-6;
}

/**
 * Peak resident set of this process image, MiB. VmHWM rather than
 * getrusage's ru_maxrss, which keeps the high-water mark of the image
 * that exec'd us (e.g. a Python launcher) across the exec.
 */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, status)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::atof(line + 6);
    }
    std::fclose(status);
    return kib / 1024.0;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Uniform double in [0, 1) from the `stream`-th stream of `seed`. */
double
seededUnit(std::uint64_t seed, std::uint64_t stream)
{
    return (double)(streamSeed(seed, stream) >> 11) * 0x1.0p-53;
}

const dnn::Network &
networkNamed(const std::vector<dnn::Network> &nets,
             const std::string &name)
{
    for (const auto &net : nets) {
        if (net.name == name)
            return net;
    }
    std::fprintf(stderr, "perfbench: no network named %s\n",
                 name.c_str());
    std::exit(2);
}

// --- per-unit outcome -------------------------------------------------

/** What one unit of work produced, beyond its timing. */
struct UnitOutcome
{
    std::string fingerprint;  ///< deterministic; repeats every unit
    obs::AuditReport audit;   ///< the unit's conservation audits
    double work = 0.0;        ///< throughput numerator
    /** Deterministic per-unit layer counts (report fields). */
    std::map<std::string, double> counts;
};

/**
 * One workload: setup() builds every input and model the timed units
 * need (called many times; the last build is kept), unit() runs one
 * timed unit of work, and crossCheck() runs untimed extra units after
 * the timed region (e.g. a serial re-run).
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup() = 0;
    virtual UnitOutcome unit() = 0;
    /** Extra untimed units; returns their outcomes. */
    virtual std::vector<UnitOutcome> crossCheck() { return {}; }
    /** What one work unit is, for the throughput line. */
    virtual const char *workName() const = 0;
    /** True if a unit runs on one thread (see CpuRotation). */
    virtual bool singleThreaded() const = 0;
};

// --- shared set-up pieces ---------------------------------------------

/** Networks, library and SuperNPU estimate: the common set-up. */
struct DesignBasis
{
    std::vector<dnn::Network> networks;
    std::unique_ptr<sfq::CellLibrary> library;
    estimator::NpuEstimate estimate;
    dnn::Network net;
    int batch = 1;

    void build(const std::string &net_name)
    {
        {
            perf::Scope span("setup.networks");
            networks = dnn::evaluationWorkloads();
            net = networkNamed(networks, net_name);
        }
        perf::Scope span("setup.library");
        library = std::make_unique<sfq::CellLibrary>(sfq::DeviceConfig{});
        const estimator::NpuEstimator est(*library);
        estimate = est.estimate(estimator::NpuConfig::superNpu());
        batch = npusim::maxBatch(estimate.config, estimate, net);
    }
};

/**
 * Mean microseconds of one NpuEstimator::estimate over the explorer's
 * default knob space on the default device — the estimator work each
 * sweep candidate pays before any simulation.
 */
double
estimatorMicros()
{
    const sfq::CellLibrary library{sfq::DeviceConfig{}};
    const estimator::NpuEstimator est(library);
    const npusim::ExplorationSpace space;
    std::vector<estimator::NpuConfig> configs;
    for (std::size_t w = 0; w < space.widths.size(); ++w)
        for (const int division : space.divisions)
            for (const int regs : space.regsPerPe)
                configs.push_back(npusim::DesignSpaceExplorer::makeConfig(
                    space.widths[w], division, regs,
                    space.bufferMbForWidth[w]));
    constexpr int kRounds = 20;
    double sink = 0.0;
    const double t0 = wallNow();
    for (int round = 0; round < kRounds; ++round)
        for (const auto &config : configs)
            sink += est.estimate(config).frequencyGhz;
    const double dt = wallNow() - t0;
    if (!(sink > 0.0))
        std::fprintf(stderr, "perfbench: estimator returned no clock\n");
    return dt * 1e6 / (double)(kRounds * configs.size());
}

/**
 * Cold DesignSpaceExplorer sweeps of the explorer's default knob space
 * over the six evaluation networks on the default device, at 1 job with
 * a fresh SimCache each, traced. Neither workload calls the explorer,
 * so its per-layer times come from these sweeps, taken after the units.
 */
perf::Report
explorerSweeps(int sweeps)
{
    const sfq::CellLibrary library{sfq::DeviceConfig{}};
    npusim::DesignSpaceExplorer explorer(library,
                                         dnn::evaluationWorkloads());
    const npusim::ExplorationSpace space;
    perf::reset();
    perf::setEnabled(true);
    for (int i = 0; i < sweeps; ++i) {
        npusim::SimCache cache;
        explorer.setCache(&cache);
        explorer.explore(space, npusim::Objective::Throughput, 1);
    }
    perf::setEnabled(false);
    return perf::report();
}

// --- serve_faults -----------------------------------------------------

/**
 * ResNet50 on 64 SuperNPU chips, run as 16 four-stage pipeline groups,
 * under open-loop Poisson load at 70 % of full-batch capacity with
 * dynamic batching and JSQ dispatch, and under a transient fault
 * schedule with retry-backoff recovery.
 */
class ServeWorkload : public Workload
{
  public:
    ServeWorkload(std::uint64_t seed, bool tiny) : _seed(seed), _tiny(tiny)
    {
    }

    void setup() override
    {
        perf::Scope span("bench.setup");
        _basis.build("ResNet50");
        {
            perf::Scope warm("setup.service_model");
            // A fresh cache per set-up: warming is real cycle
            // simulation every time, not a hit on the last build.
            _service.reset();
            _cache = std::make_unique<npusim::SimCache>();
            _service = std::make_unique<serving::BatchServiceModel>(
                _basis.estimate, _basis.net, _cache.get());
            for (int b = 1; b <= _basis.batch; ++b)
                _service->batchSeconds(b);
            // The simulator builds its own pipeline model per run;
            // warming the stage timings here leaves it only cache hits.
            const partition::PipelineServiceModel pipe(
                _basis.estimate, _basis.net, kStages,
                partition::LinkConfig{}, _cache.get());
            for (int b = 1; b <= _basis.batch; ++b)
                pipe.timing(b);
            _batchIntervalSec = pipe.timing(_basis.batch).intervalSec;
        }

        serving::ServingConfig cfg;
        cfg.chips = 64;
        cfg.pipelineStages = kStages;
        cfg.requests = _tiny ? 20000 : 2000000;
        cfg.seed = streamSeed(_seed, 1);
        cfg.dispatch = serving::DispatchPolicy::JoinShortestQueue;
        cfg.batching.policy = serving::BatchPolicy::DynamicTimeout;
        cfg.batching.maxBatch = _basis.batch;
        const double servers = (double)(cfg.chips / kStages);
        const double capacity =
            servers * (double)_basis.batch / _batchIntervalSec;
        // The seed drives only the arrival and fault streams; the
        // load stays at 70 % of capacity so every seed does the
        // same volume of work.
        cfg.arrival.ratePerSec = 0.7 * capacity;
        {
            perf::Scope sched("setup.fault_schedule");
            reliability::FaultScheduleConfig faults;
            faults.chips = cfg.chips;
            faults.seed = streamSeed(_seed, 3);
            faults.horizonSec = 2.0 * (double)cfg.requests /
                                cfg.arrival.ratePerSec;
            faults.pulseDropRatePerSec = kPulseDropRate;
            faults.linkGlitchRatePerSec = kLinkGlitchRate;
            cfg.faults = reliability::FaultSchedule::generate(faults);
        }
        cfg.resilience.recovery = serving::RecoveryPolicy::RetryBackoff;
        _cfg = cfg;
    }

    UnitOutcome unit() override
    {
        UnitOutcome out;
        const npusim::SimCacheStats before = _cache->stats();
        serving::ServingSimulator sim(*_service, _cfg);
        const serving::ServingReport report = sim.run();
        const npusim::SimCacheStats after = _cache->stats();
        {
            perf::Scope span("obs.audit");
            out.audit = obs::auditServing(report);
        }
        obs::RunLedger ledger;
        {
            perf::Scope span("obs.ledger");
            obs::addServingReport(ledger, report);
            obs::addFaultSchedule(ledger, _cfg.faults);
            out.counts["obs.ledger_bytes"] = (double)ledger.json().size();
        }
        char fp[96];
        std::snprintf(fp, sizeof fp, "completed=%" PRIu64 " p99_ns=%.0f",
                      report.completed, report.latencyP99 * 1e9);
        out.fingerprint = fp;
        out.work = (double)report.completed;
        const double lookups = (double)(after.hits - before.hits) +
                               (double)(after.misses - before.misses);
        out.counts["serving.events"] = (double)report.eventsProcessed;
        out.counts["serving.batches"] = (double)report.batchesLaunched;
        out.counts["serving.mean_batch"] = report.meanBatch;
        out.counts["serving.simcache_lookups_per_batch"] =
            ratio(lookups, (double)report.batchesLaunched);
        out.counts["serving.sim_p99_ms"] = report.latencyP99 * 1e3;
        out.counts["serving.sim_goodput_rps"] = report.goodputRps;
        out.counts["serving.sim_utilization"] = report.utilization;
        out.counts["reliability.schedule_events"] =
            (double)_cfg.faults.size();
        out.counts["serving.faults_injected"] =
            (double)report.faultsInjected;
        out.counts["serving.requests_killed"] =
            (double)report.requestsKilled;
        out.counts["serving.retries"] = (double)report.retriesTotal;
        out.counts["serving.useful_ratio"] =
            ratio((double)report.completed,
                  (double)(report.completed + report.requestsKilled));
        out.counts["simcache.hits"] = (double)(after.hits - before.hits);
        out.counts["simcache.misses"] =
            (double)(after.misses - before.misses);
        out.counts["simcache.evictions"] =
            (double)(after.evictions - before.evictions);
        return out;
    }

    const char *workName() const override
    {
        return "simulated requests";
    }

    bool singleThreaded() const override { return true; }

  private:
    static constexpr int kStages = 4;
    // Per-chip transient fault rates (1/s of simulated time) that kill
    // about 2 % of requests at this load.
    static constexpr double kPulseDropRate = 10.0;
    static constexpr double kLinkGlitchRate = 1000.0;

    std::uint64_t _seed;
    bool _tiny;
    DesignBasis _basis;
    std::unique_ptr<npusim::SimCache> _cache;
    std::unique_ptr<serving::BatchServiceModel> _service;
    double _batchIntervalSec = 0.0;
    serving::ServingConfig _cfg;
};

// --- plan_search ------------------------------------------------------

/**
 * HybridPlanner throughput search of ResNet50 under a 1024-chip
 * budget at 2 jobs, with a fresh SimCache and planner (hence a fresh
 * LayerTimingCache) per unit, as in one `supernpu shard` invocation.
 */
class PlanWorkload : public Workload
{
  public:
    PlanWorkload(std::uint64_t seed, bool tiny)
        : _seed(seed), _budget(tiny ? 32 : 1024)
    {
    }

    void setup() override
    {
        perf::Scope span("bench.setup");
        _basis.build("ResNet50");
        // The seed picks the inter-chip link within ±20 % of the
        // paper's 300 GB/s comparator and 32..96 cycles of latency.
        _link.bandwidthGBps = 300.0 * (0.8 + 0.4 * seededUnit(_seed, 1));
        _link.latencyCycles =
            32 + (std::uint64_t)(64.0 * seededUnit(_seed, 2));
    }

    UnitOutcome unit() override { return search(kJobs); }

    std::vector<UnitOutcome> crossCheck() override
    {
        // The search is byte-identical at any job count; the serial
        // walk must reproduce the parallel fingerprint.
        return {search(1)};
    }

    const char *workName() const override { return "factorizations"; }

    bool singleThreaded() const override { return false; }

  private:
    static constexpr int kJobs = 2;

    UnitOutcome search(int jobs)
    {
        UnitOutcome out;
        npusim::SimCache cache;
        const sharding::HybridPlanner planner(_basis.estimate, _link,
                                              &cache);
        const sharding::PlanSearch search =
            planner.plan(_basis.net, _budget, _basis.batch,
                         sharding::PlanObjective::Throughput, jobs);
        const sharding::ShardPlan &best = search.best();
        {
            perf::Scope span("obs.audit");
            out.audit = obs::auditSharding(best);
        }
        const npusim::SimCacheStats stats = cache.stats();
        const partition::LayerTimingCacheStats timing =
            planner.timingCacheStats();
        {
            perf::Scope span("obs.ledger");
            obs::RunLedger ledger;
            obs::addShardPlan(ledger, best);
            obs::addSimCacheStats(ledger, stats);
            obs::addLayerTimingCacheStats(ledger, timing);
            out.counts["obs.ledger_bytes"] = (double)ledger.json().size();
        }
        char fp[128];
        std::snprintf(fp, sizeof fp,
                      "interval=%" PRIu64 " candidates=%zu dp=%d tp=%d"
                      " pp=%d",
                      best.intervalCycles, search.evaluated.size(),
                      best.dataParallel, best.tensorShards,
                      best.pipelineStages);
        out.fingerprint = fp;
        out.work = (double)search.evaluated.size();
        out.counts["planner.candidates"] = (double)search.evaluated.size();
        out.counts["simcache.hits"] = (double)stats.hits;
        out.counts["simcache.misses"] = (double)stats.misses;
        out.counts["simcache.evictions"] = (double)stats.evictions;
        // pool.loops / pool.tasks stay unmeasured (0): the planner's
        // thread pool is internal to plan() and exposes no counters.
        return out;
    }

    std::uint64_t _seed;
    int _budget;
    DesignBasis _basis;
    partition::LinkConfig _link;
};

// --- trace reduction --------------------------------------------------

/** Inclusive and self seconds of every span leaf name. */
struct SpanTimes
{
    std::map<std::string, double> incl, self;
    double rootSec = 0.0; ///< Σ root spans: traced thread-seconds
};

std::string
leafOf(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/**
 * Self time of a span path is its inclusive time minus that of its
 * direct children; spans of the same leaf name are summed over every
 * path (a pool worker's spans are roots of their own thread).
 */
SpanTimes
reduceSpans(const perf::Report &report, bool print)
{
    SpanTimes out;
    for (const perf::PhaseStat &phase : report.phases) {
        double children = 0.0;
        const std::string prefix = phase.path + "/";
        for (const perf::PhaseStat &other : report.phases) {
            if (other.path.compare(0, prefix.size(), prefix) == 0 &&
                other.path.find('/', prefix.size()) == std::string::npos)
                children += (double)other.ns * 1e-9;
        }
        const double incl = (double)phase.ns * 1e-9;
        const std::string leaf = leafOf(phase.path);
        out.incl[leaf] += incl;
        out.self[leaf] += incl - children;
        if (phase.path.find('/') == std::string::npos)
            out.rootSec += incl;
        if (print)
            std::printf("span %-58s n=%-8" PRIu64
                        " incl=%.6f s self=%.6f s\n",
                        phase.path.c_str(), phase.count, incl,
                        incl - children);
    }
    return out;
}

// --- output -----------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-40s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** The machine-read result: the last line of stdout. */
void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                obs::jsonNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench"
                 " --workload serve_faults|plan_search"
                 " --seed N --seconds S --trace 0|1"
                 " [--size full|tiny] [--tamper-fingerprint]\n",
                 why);
    std::exit(2);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool tamper = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        if (flag == "--workload") {
            args.workload = value();
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value().c_str());
            if (!(args.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            args.trace = v == "1";
        } else if (flag == "--size") {
            const std::string v = value();
            if (v != "full" && v != "tiny")
                usage("--size takes full or tiny");
            args.tiny = v == "tiny";
        } else if (flag == "--tamper-fingerprint") {
            args.tamper = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return args;
}

std::unique_ptr<Workload>
makeWorkload(const Args &args)
{
    if (args.workload == "serve_faults")
        return std::make_unique<ServeWorkload>(args.seed, args.tiny);
    if (args.workload == "plan_search")
        return std::make_unique<PlanWorkload>(args.seed, args.tiny);
    usage(("unknown workload " + args.workload).c_str());
}

// The least wall time of one set-up sample, and the unit-count floor
// and ceiling of the timed region.
constexpr double kSetupSampleSec = 0.04;
constexpr int kMinUnits = 3;
constexpr int kMaxUnits = 400;

/**
 * One set-up sample: repeat the whole set-up for at least
 * kSetupSampleSec, so sub-millisecond set-ups are not timed one clock
 * read at a time. Returns the mean seconds per build and the builds.
 */
std::pair<double, int>
setupSample(Workload &workload)
{
    const double t0 = wallNow();
    int builds = 0;
    do {
        workload.setup();
        ++builds;
    } while (wallNow() - t0 < kSetupSampleSec);
    return {(wallNow() - t0) / builds, builds};
}

/**
 * Moves a one-thread workload to the next allowed CPU before each unit.
 * On a shared host each CPU's speed swings by tens of percent for
 * seconds to minutes, apart from the other CPUs, and the scheduler
 * leaves a lone busy thread where it is; rotating spreads a run's
 * units, and their set-up samples, over every CPU. Ten interleaved
 * pairs of 25 s serve_faults runs on a shared 4-vCPU x86 VM gave a
 * wall_s spread of 10.8 % rotated and 17.9 % unrotated. A two-thread
 * unit already spans two CPUs, and rotating it did not narrow its
 * spread, so it is left to the scheduler.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&_allowed);
        sched_getaffinity(0, sizeof _allowed, &_allowed);
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &_allowed))
                _cpus.push_back(cpu);
        }
    }

    /** Run the calling thread on the step-th allowed CPU, in turn. */
    void moveTo(std::size_t step) const
    {
        if (_cpus.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(_cpus[step % _cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    /** Let the calling thread run on every allowed CPU again. */
    void release() const
    {
        sched_setaffinity(0, sizeof _allowed, &_allowed);
    }

  private:
    cpu_set_t _allowed;
    std::vector<int> _cpus;
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> workload = makeWorkload(args);
    // A second instance whose only job is to be set up again and
    // again for setup_s, so the units' own inputs are built once.
    std::unique_ptr<Workload> probe = makeWorkload(args);
    perf::setEnabled(false);
    perf::reset();

    // Per-layer set-up spans come from traced builds made up front.
    int traced_setups = 0;
    if (args.trace) {
        perf::setEnabled(true);
        traced_setups = setupSample(*probe).second;
        perf::setEnabled(false);
    }
    const perf::Report setup_report = perf::report();
    perf::reset();
    workload->setup();

    // --- timed units --------------------------------------------------
    std::uint64_t attempted = 0, failed = 0;
    std::string reference;
    std::map<std::string, double> counts; // summed over traced units
    std::vector<double> wall, cpu, traced_wall, work;
    const auto judge = [&](UnitOutcome &out, int index) {
        ++attempted;
        if (args.tamper && index == 1)
            out.fingerprint += "-tampered";
        bool ok = true;
        if (!out.audit.ok()) {
            ok = false;
            std::fprintf(stderr, "perfbench: unit %d audit failed:\n%s\n",
                         index, out.audit.summary().c_str());
        }
        if (reference.empty()) {
            reference = out.fingerprint;
        } else if (out.fingerprint != reference) {
            ok = false;
            std::fprintf(stderr,
                         "perfbench: unit %d fingerprint mismatch:"
                         " got '%s', first unit gave '%s'\n",
                         index, out.fingerprint.c_str(),
                         reference.c_str());
        }
        if (!ok)
            ++failed;
    };

    // Before every unit the probe takes one set-up sample, so the
    // samples spread over the whole run: on a shared host a core's
    // speed changes over seconds, and samples taken back to back would
    // all land in one such phase. setup_s is their median.
    std::vector<double> setup_wall;
    const CpuRotation rotation;
    // A unit starts only if one more of the last unit's length still
    // ends within --seconds, so a run lasts about --seconds.
    const double region_start = wallNow();
    double last_unit = 0.0;
    for (int i = 0; i < kMaxUnits; ++i) {
        if (i >= kMinUnits * (args.trace ? 2 : 1) &&
            wallNow() - region_start + last_unit > args.seconds)
            break;
        const bool traced = args.trace && i % 2 == 1;
        // A traced unit runs on the CPU of the untraced unit before it.
        if (workload->singleThreaded())
            rotation.moveTo(args.trace ? i / 2 : i);
        const double s0 = wallNow();
        setup_wall.push_back(setupSample(*probe).first);
        perf::setEnabled(traced);
        const double c0 = cpuNow();
        const double t0 = wallNow();
        UnitOutcome out;
        {
            perf::Scope span("bench.unit");
            out = workload->unit();
        }
        const double dt = wallNow() - t0;
        const double dc = cpuNow() - c0;
        perf::setEnabled(false);
        last_unit = wallNow() - s0;
        std::printf("unit %d%s wall %.6f s cpu %.6f s, set-up %.9f s\n", i,
                    traced ? " (traced)" : "", dt, dc, setup_wall.back());
        judge(out, i);
        if (traced) {
            traced_wall.push_back(dt);
            for (const auto &[name, value] : out.counts)
                counts[name] += value;
        } else {
            wall.push_back(dt);
            cpu.push_back(dc);
            work.push_back(out.work);
        }
    }
    rotation.release();
    const perf::Report unit_report = perf::report();
    for (UnitOutcome &out : workload->crossCheck())
        judge(out, (int)attempted);

    const double wall_s = median(wall);
    const double cpu_s = median(cpu);
    const double throughput = ratio(median(work), wall_s);
    std::printf("workload %s seed %" PRIu64 ": %zu timed units, %s per"
                " unit %.0f, fingerprint %s\n",
                args.workload.c_str(), args.seed, wall.size(),
                workload->workName(), median(work), reference.c_str());

    // End-to-end metrics come from untraced set-ups and units only;
    // a traced run prints them too but reports per-layer metrics.
    const std::vector<Metric> end_to_end = {
        {"wall_s", wall_s, "s"},
        {"setup_s", median(setup_wall), "s"},
        {"cpu_s", cpu_s, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"throughput", throughput, "1/s"},
    };
    printMetrics(end_to_end);
    std::vector<Metric> metrics = end_to_end;
    if (args.trace) {
        const double n = (double)traced_wall.size();
        const auto per_unit = [&](const std::string &name) {
            const auto it = counts.find(name);
            return it == counts.end() ? 0.0 : it->second / n;
        };
        std::printf("setup spans (%d traced builds):\n", traced_setups);
        const SpanTimes setup = reduceSpans(setup_report, true);
        std::printf("unit spans (%zu traced units):\n",
                    traced_wall.size());
        const SpanTimes spans = reduceSpans(unit_report, true);
        constexpr int kSweeps = 8;
        const perf::Report sweep_report = explorerSweeps(kSweeps);
        std::printf("explorer spans (%d cold sweeps):\n", kSweeps);
        const SpanTimes sweep = reduceSpans(sweep_report, true);
        const auto s_incl = [&](const SpanTimes &t, const char *leaf,
                                double div) {
            const auto it = t.incl.find(leaf);
            return it == t.incl.end() ? 0.0 : it->second / div;
        };
        const auto s_self = [&](const SpanTimes &t, const char *leaf,
                                double div) {
            const auto it = t.self.find(leaf);
            return it == t.self.end() ? 0.0 : it->second / div;
        };
        const auto counter = [&](const char *name) {
            return (double)unit_report.counterValue(name) / n;
        };
        const double ns = std::max(1.0, (double)traced_setups);
        const double run_s = s_incl(spans, "serving.run", n);
        const double events = per_unit("serving.events");
        const double plan_s = s_incl(spans, "planner.plan", n);
        const double candidates = per_unit("planner.candidates");
        const double sim_runs = counter("npusim.runs");
        const double sim_s = s_incl(spans, "npusim.run", n);
        const double hits = per_unit("simcache.hits");
        const double misses = per_unit("simcache.misses");
        const double t_hits = counter("partition.timingCache.hits");
        const double t_misses = counter("partition.timingCache.misses");
        const double thread_s = spans.rootSec / n;
        metrics = {
            {"serving.run_s", run_s, "s"},
            {"serving.events", events, "count"},
            {"serving.ns_per_event", ratio(run_s * 1e9, events), "ns"},
            {"serving.batches", per_unit("serving.batches"), "count"},
            {"serving.mean_batch", per_unit("serving.mean_batch"), "count"},
            {"serving.simcache_lookups_per_batch",
             per_unit("serving.simcache_lookups_per_batch"), "count"},
            {"serving.service_model_s",
             s_incl(setup, "setup.service_model", ns), "s"},
            {"serving.sim_p99_ms", per_unit("serving.sim_p99_ms"), "ms"},
            {"serving.sim_goodput_rps", per_unit("serving.sim_goodput_rps"),
             "1/s"},
            {"serving.sim_utilization", per_unit("serving.sim_utilization"),
             "ratio"},
            {"reliability.schedule_s",
             s_incl(setup, "setup.fault_schedule", ns), "s"},
            {"reliability.schedule_events",
             per_unit("reliability.schedule_events"), "count"},
            {"serving.faults_injected", per_unit("serving.faults_injected"),
             "count"},
            {"serving.requests_killed", per_unit("serving.requests_killed"),
             "count"},
            {"serving.retries", per_unit("serving.retries"), "count"},
            {"serving.useful_ratio", per_unit("serving.useful_ratio"),
             "ratio"},
            {"planner.plan_s", plan_s, "s"},
            {"planner.candidates", candidates, "count"},
            {"planner.us_per_candidate", ratio(plan_s * 1e6, candidates),
             "us"},
            {"planner.evaluate_self_s", s_self(spans, "planner.evaluate", n),
             "s"},
            {"partition.timing_cache_hits", t_hits, "count"},
            {"partition.timing_cache_misses", t_misses, "count"},
            {"partition.timing_cache_hit_ratio",
             ratio(t_hits, t_hits + t_misses), "ratio"},
            {"npusim.runs", sim_runs, "count"},
            {"npusim.layer_sims", counter("npusim.layerSims"), "count"},
            {"npusim.us_per_run", ratio(sim_s * 1e6, sim_runs), "us"},
            {"npusim.share", ratio(sim_s, thread_s), "ratio"},
            {"simcache.hits", hits, "count"},
            {"simcache.misses", misses, "count"},
            {"simcache.evictions", per_unit("simcache.evictions"), "count"},
            {"simcache.hit_ratio", ratio(hits, hits + misses), "ratio"},
            {"explorer.explore_s", s_incl(sweep, "explorer.explore", kSweeps),
             "s"},
            {"explorer.self_s", s_self(sweep, "explorer.explore", kSweeps),
             "s"},
            {"explorer.candidates",
             (double)sweep_report.counterValue("explorer.candidates") /
                 kSweeps,
             "count"},
            {"estimator.us_per_estimate", estimatorMicros(), "us"},
            {"pool.cpu_per_wall", ratio(cpu_s, wall_s), "ratio"},
            {"obs.ledger_s", s_incl(spans, "obs.ledger", n), "s"},
            {"obs.audit_s", s_incl(spans, "obs.audit", n), "s"},
            {"obs.ledger_bytes", per_unit("obs.ledger_bytes"), "bytes"},
            {"setup.networks_s", s_incl(setup, "setup.networks", ns), "s"},
            {"setup.library_s", s_incl(setup, "setup.library", ns), "s"},
            {"trace.overhead_frac",
             ratio(median(traced_wall), wall_s) - 1.0, "ratio"},
            {"trace.thread_s", thread_s, "s"},
        };
        for (const char *span :
             {"bench.setup", "bench.unit", "serving.run", "pipeline.run",
              "planner.plan", "planner.evaluate", "npusim.run",
              "obs.audit", "obs.ledger"}) {
            const bool in_setup = std::strcmp(span, "bench.setup") == 0;
            const SpanTimes &t = in_setup ? setup : spans;
            const double div = in_setup ? ns : n;
            metrics.push_back({std::string("span.") + span + ".incl_s",
                               s_incl(t, span, div), "s"});
            metrics.push_back({std::string("span.") + span + ".self_s",
                               s_self(t, span, div), "s"});
        }
    }
    if (args.trace)
        printMetrics(metrics);
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}
