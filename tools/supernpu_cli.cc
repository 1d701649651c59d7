/**
 * @file
 * supernpu — command-line front end over the library.
 *
 *   supernpu <command> [arguments] [options]
 *
 * One option table (kOptions) and one command table (kCommands)
 * define every flag, its value kind and bounds, its help text, and
 * the commands that read it; `supernpu <command> --help` prints the
 * command's options from them. A flag the command does not read,
 * an out-of-range value or a stray argument is a fatal usage error.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <fstream>
#include <sstream>

#include "check/runner.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "dnn/networks.hh"
#include "dnn/parser.hh"
#include "estimator/design_rules.hh"
#include "estimator/npu_estimator.hh"
#include "estimator/validation.hh"
#include "npusim/batch.hh"
#include "npusim/explorer.hh"
#include "npusim/sim.hh"
#include "obs/audit.hh"
#include "obs/ledger.hh"
#include "partition/pipeline_sim.hh"
#include "perf/bench_runner.hh"
#include "perf/profile.hh"
#include "power/power.hh"
#include "reliability/error_propagation.hh"
#include "reliability/fault_model.hh"
#include "reliability/injector.hh"
#include "serving/simulator.hh"
#include "sharding/planner.hh"

using namespace supernpu;

namespace {

/**
 * Most worker threads --jobs may ask for: far past any host's cores,
 * and low enough that a typo cannot ask the OS for millions of
 * threads.
 */
constexpr std::uint64_t kMaxJobs = 1024;

/** Parsed command-line state. */
struct Options
{
    sfq::DeviceConfig device;
    estimator::NpuConfig config = estimator::NpuConfig::superNpu();
    dnn::Network net;       ///< the workload or --netfile network
    int forcedBatch = 0;    ///< --batch; 0 = the solver's maximum
    int jobs = 0;           ///< --jobs; 0 = the command's default
    std::string netFile;    ///< --netfile path, when given
    std::string traceFile;  ///< --trace path for the mapping CSV
    std::string ledgerFile; ///< --ledger path (.json or .csv)
    serving::ServingConfig serve; ///< serve/faults-subcommand state
    reliability::FaultScheduleConfig faults; ///< fault rates + seed
    bool faultRateGiven = false; ///< any --*-rate flag seen
    double berFlipsPerMillion = 25.0; ///< --ber error-study rate
    int stages = 0;         ///< --stages; 0 = the command's default
    bool sweep = false;     ///< --sweep: K-sweep / budget table
    int streamBatches = 64; ///< --stream batches
    partition::LinkConfig link; ///< --link-gbps / --link-latency
    int dataParallel = 0;   ///< --dp replica count; 0 = not given
    int tensorShards = 0;   ///< --tp shard count; 0 = not given
    int chipBudget = 8;     ///< --chips as shard's planner budget
    /** --objective for shard planning. */
    sharding::PlanObjective objective =
        sharding::PlanObjective::Throughput;
    check::RunnerOptions checkRun; ///< check-subcommand state
    bench::BenchOptions benchRun; ///< bench-subcommand state
    std::string benchOut;         ///< --out path; "" = default name
    std::string benchBaseline;    ///< --baseline comparison file
    double benchThreshold = 10.0; ///< --threshold allowed slowdown %
};

/** The commands, as bits of an option's acceptance set. */
enum : unsigned
{
    CmdWorkloads = 1u << 0,
    CmdEstimate = 1u << 1,
    CmdSimulate = 1u << 2,
    CmdBatch = 1u << 3,
    CmdServe = 1u << 4,
    CmdFaults = 1u << 5,
    CmdReport = 1u << 6,
    CmdPartition = 1u << 7,
    CmdShard = 1u << 8,
    CmdCheck = 1u << 9,
    CmdValidate = 1u << 10,
    CmdExplore = 1u << 11,
    CmdBench = 1u << 12,

    /** Commands over one workload (a name or --netfile). */
    CmdNet = CmdSimulate | CmdBatch | CmdServe | CmdFaults | CmdReport |
             CmdPartition | CmdShard,
    CmdConfig = CmdEstimate | CmdNet,
    CmdDevice = CmdConfig | CmdCheck | CmdValidate | CmdExplore,
    CmdBatched = CmdNet & ~CmdBatch,
    CmdLedger = CmdBatched | CmdExplore,
    CmdServing = CmdServe | CmdFaults,
    CmdLink = CmdServing | CmdPartition | CmdShard,
    CmdAll = ~0u,
};

/** What an option's value is. */
enum class Kind
{
    Integer, ///< decimal digits, at most INT_MAX
    Count,   ///< decimal digits, at most UINT64_MAX
    Real,    ///< a finite number
    Choice,  ///< one of the row's '|'-separated names
    Path,    ///< any text
    Switch,  ///< no value
};

/** The smallest value a numeric option accepts. */
enum class Bound
{
    Any,
    NonNegative,
    Positive,
};

/** One parsed option value; the row's kind says which field is set. */
struct Value
{
    std::uint64_t n = 0;  ///< Integer, Count
    double x = 0.0;       ///< Real
    std::size_t pick = 0; ///< Choice: index into the row's names
    std::string text;     ///< Path
};

/** One row of the option table. */
struct OptionRow
{
    const char *name;
    Kind kind;
    Bound bound;
    const char *meta;  ///< value placeholder; a Choice's names
    unsigned commands; ///< the commands that read it
    const char *help;
    void (*set)(Options &, const Value &);
};

const OptionRow kOptions[] = {
    // --- device and architecture ------------------------------------
    {"--tech", Kind::Choice, Bound::Any, "rsfq|ersfq", CmdDevice,
     "bias technology (default rsfq)", [](Options &o, const Value &v) {
         o.device.technology =
             v.pick ? sfq::Technology::ERSFQ : sfq::Technology::RSFQ;
     }},
    {"--feature", Kind::Real, Bound::Positive, "<um>", CmdDevice,
     "process feature size (default 1.0)",
     [](Options &o, const Value &v) { o.device.featureSizeUm = v.x; }},
    {"--width", Kind::Integer, Bound::Positive, "<n>", CmdConfig,
     "PE array width",
     [](Options &o, const Value &v) { o.config.peWidth = (int)v.n; }},
    {"--height", Kind::Integer, Bound::Positive, "<n>", CmdConfig,
     "PE array height",
     [](Options &o, const Value &v) { o.config.peHeight = (int)v.n; }},
    {"--regs", Kind::Integer, Bound::Positive, "<n>", CmdConfig,
     "weight registers per PE",
     [](Options &o, const Value &v) { o.config.regsPerPe = (int)v.n; }},
    {"--division", Kind::Integer, Bound::Positive, "<n>", CmdConfig,
     "output-buffer division degree",
     [](Options &o, const Value &v) { o.config.outputDivision = (int)v.n; }},
    {"--ifmap-mb", Kind::Integer, Bound::Positive, "<MiB>", CmdConfig,
     "ifmap buffer capacity", [](Options &o, const Value &v) {
         o.config.ifmapBufferBytes = v.n * units::MiB;
     }},
    {"--output-mb", Kind::Integer, Bound::Positive, "<MiB>", CmdConfig,
     "integrated output buffer capacity", [](Options &o, const Value &v) {
         o.config.integratedOutputBuffer = true;
         o.config.outputBufferBytes = v.n * units::MiB;
         o.config.psumBufferBytes = 0;
         o.config.ofmapBufferBytes = 0;
     }},
    {"--bandwidth-gbps", Kind::Real, Bound::Positive, "<GB/s>", CmdConfig,
     "DRAM bandwidth",
     [](Options &o, const Value &v) { o.config.memoryBandwidth = v.x * 1e9; }},

    // --- the workload and the run's outputs --------------------------
    {"--netfile", Kind::Path, Bound::Any, "<path>", CmdNet,
     "read the network from a netfile instead of a workload name",
     [](Options &o, const Value &v) { o.netFile = v.text; }},
    {"--batch", Kind::Integer, Bound::Positive, "<n>", CmdBatched,
     "force a batch size (default: the largest that fits on chip)",
     [](Options &o, const Value &v) { o.forcedBatch = (int)v.n; }},
    {"--trace", Kind::Path, Bound::Any, "<csv>", CmdSimulate,
     "write the mapping events as CSV",
     [](Options &o, const Value &v) { o.traceFile = v.text; }},
    {"--ledger", Kind::Path, Bound::Any, "<json|csv>", CmdLedger,
     "write the run ledger",
     [](Options &o, const Value &v) { o.ledgerFile = v.text; }},
    {"--json", Kind::Switch, Bound::Any, "", CmdReport,
     "ledger JSON on stdout (the default; accepted for scripts)",
     [](Options &, const Value &) {}},
    {"--jobs", Kind::Integer, Bound::NonNegative, "<n>",
     CmdShard | CmdCheck | CmdExplore | CmdBench,
     "worker threads, at most 1024; output is the same at any value"
     " (default 1; explore: every hardware thread)",
     [](Options &o, const Value &v) {
         if (v.n > kMaxJobs)
             fatal("option '--jobs' allows at most ", kMaxJobs,
                   " worker threads, got ", v.n);
         o.jobs = (int)v.n;
     }},

    // --- serving -----------------------------------------------------
    {"--rps", Kind::Real, Bound::NonNegative, "<n>", CmdServing,
     "offered load, requests/s (default 1000)",
     [](Options &o, const Value &v) { o.serve.arrival.ratePerSec = v.x; }},
    {"--chips", Kind::Integer, Bound::Positive, "<n>", CmdServing | CmdShard,
     "NPU dies behind the dispatcher; shard: the planner's chip budget"
     " (default 8)",
     [](Options &o, const Value &v) {
         o.serve.chips = o.chipBudget = (int)v.n;
     }},
    {"--policy", Kind::Choice, Bound::Any, "dynamic|fixed", CmdServing,
     "batching policy", [](Options &o, const Value &v) {
         o.serve.batching.policy = v.pick
                                       ? serving::BatchPolicy::FixedBatch
                                       : serving::BatchPolicy::DynamicTimeout;
     }},
    {"--dispatch", Kind::Choice, Bound::Any, "rr|jsq", CmdServing,
     "request placement across chips", [](Options &o, const Value &v) {
         o.serve.dispatch = v.pick
                                ? serving::DispatchPolicy::JoinShortestQueue
                                : serving::DispatchPolicy::RoundRobin;
     }},
    {"--arrival", Kind::Choice, Bound::Any, "poisson|bursty|closed",
     CmdServing, "traffic shape", [](Options &o, const Value &v) {
         static const serving::ArrivalKind kinds[] = {
             serving::ArrivalKind::OpenPoisson, serving::ArrivalKind::Bursty,
             serving::ArrivalKind::ClosedLoop};
         o.serve.arrival.kind = kinds[v.pick];
     }},
    {"--timeout-us", Kind::Real, Bound::NonNegative, "<us>", CmdServing,
     "dynamic-batching timeout", [](Options &o, const Value &v) {
         o.serve.batching.timeoutSec = v.x * 1e-6;
     }},
    {"--requests", Kind::Count, Bound::Positive, "<n>", CmdServing,
     "requests to simulate",
     [](Options &o, const Value &v) { o.serve.requests = v.n; }},
    {"--clients", Kind::Integer, Bound::Positive, "<n>", CmdServing,
     "closed-loop client population",
     [](Options &o, const Value &v) { o.serve.arrival.clients = (int)v.n; }},
    {"--seed", Kind::Count, Bound::NonNegative, "<n>", CmdServing | CmdCheck,
     "RNG seed", [](Options &o, const Value &v) { o.serve.seed = v.n; }},
    {"--recovery", Kind::Choice, Bound::Any, "none|retry|degraded",
     CmdServing, "recovery policy", [](Options &o, const Value &v) {
         static const serving::RecoveryPolicy policies[] = {
             serving::RecoveryPolicy::None,
             serving::RecoveryPolicy::RetryBackoff,
             serving::RecoveryPolicy::DegradedDispatch};
         o.serve.resilience.recovery = policies[v.pick];
     }},
    {"--detect-us", Kind::Real, Bound::NonNegative, "<us>", CmdServing,
     "fault detection latency", [](Options &o, const Value &v) {
         o.serve.resilience.detectLatencySec = v.x * 1e-6;
     }},
    {"--max-retries", Kind::Integer, Bound::NonNegative, "<n>", CmdServing,
     "retry budget per request", [](Options &o, const Value &v) {
         o.serve.resilience.maxRetries = (int)v.n;
     }},
    {"--backoff-us", Kind::Real, Bound::NonNegative, "<us>", CmdServing,
     "first retry backoff", [](Options &o, const Value &v) {
         o.serve.resilience.backoffBaseSec = v.x * 1e-6;
     }},
    {"--checkpoint", Kind::Switch, Bound::Any, "", CmdServing,
     "checkpoint/restart killed batches", [](Options &o, const Value &) {
         o.serve.resilience.checkpointRestart = true;
     }},

    // --- fault injection ---------------------------------------------
    {"--drop-rate", Kind::Real, Bound::NonNegative, "<n>", CmdFaults,
     "pulse drops per chip-second", [](Options &o, const Value &v) {
         o.faults.pulseDropRatePerSec = v.x;
         o.faultRateGiven = true;
     }},
    {"--trap-rate", Kind::Real, Bound::NonNegative, "<n>", CmdFaults,
     "flux traps per chip-second", [](Options &o, const Value &v) {
         o.faults.fluxTrapRatePerSec = v.x;
         o.faultRateGiven = true;
     }},
    {"--skew-rate", Kind::Real, Bound::NonNegative, "<n>", CmdFaults,
     "clock-skew windows per chip-second", [](Options &o, const Value &v) {
         o.faults.clockSkewRatePerSec = v.x;
         o.faultRateGiven = true;
     }},
    {"--glitch-rate", Kind::Real, Bound::NonNegative, "<n>", CmdFaults,
     "link glitches per chip-second", [](Options &o, const Value &v) {
         o.faults.linkGlitchRatePerSec = v.x;
         o.faultRateGiven = true;
     }},
    {"--fault-burst", Kind::Switch, Bound::Any, "", CmdFaults,
     "bursty (on/off) transient arrivals", [](Options &o, const Value &) {
         o.faults.arrival = reliability::FaultArrival::Burst;
     }},
    {"--fault-seed", Kind::Count, Bound::NonNegative, "<n>", CmdFaults,
     "fault-schedule seed",
     [](Options &o, const Value &v) { o.faults.seed = v.n; }},
    {"--ber", Kind::Real, Bound::NonNegative, "<n>", CmdFaults,
     "bit flips per million MACs in the error study (default 25)",
     [](Options &o, const Value &v) { o.berFlipsPerMillion = v.x; }},

    // --- multi-chip placement ----------------------------------------
    {"--stages", Kind::Integer, Bound::Positive, "<k>", CmdLink,
     "pipeline stages (chips per pipeline; partition default 4)",
     [](Options &o, const Value &v) { o.stages = (int)v.n; }},
    {"--dp", Kind::Integer, Bound::Positive, "<r>", CmdServing | CmdShard,
     "data-parallel replicas",
     [](Options &o, const Value &v) { o.dataParallel = (int)v.n; }},
    {"--tp", Kind::Integer, Bound::Positive, "<t>", CmdShard,
     "tensor-parallel shards per replica",
     [](Options &o, const Value &v) { o.tensorShards = (int)v.n; }},
    {"--objective", Kind::Choice, Bound::Any, "throughput|latency", CmdShard,
     "planner ranking", [](Options &o, const Value &v) {
         o.objective = v.pick ? sharding::PlanObjective::Latency
                              : sharding::PlanObjective::Throughput;
     }},
    {"--sweep", Kind::Switch, Bound::Any, "", CmdPartition | CmdShard,
     "also print a K-sweep (partition) or budget-scaling (shard) table",
     [](Options &o, const Value &) { o.sweep = true; }},
    {"--stream", Kind::Integer, Bound::Positive, "<n>", CmdPartition,
     "batches streamed through the pipeline (default 64)",
     [](Options &o, const Value &v) { o.streamBatches = (int)v.n; }},
    {"--link-gbps", Kind::Real, Bound::Positive, "<GB/s>", CmdLink,
     "inter-chip link bandwidth (default 300)",
     [](Options &o, const Value &v) { o.link.bandwidthGBps = v.x; }},
    {"--link-latency", Kind::Count, Bound::NonNegative, "<cycles>", CmdLink,
     "fixed link latency",
     [](Options &o, const Value &v) { o.link.latencyCycles = v.n; }},

    // --- check -------------------------------------------------------
    {"--cases", Kind::Count, Bound::Positive, "<n>", CmdCheck,
     "generated scenarios (default 100)",
     [](Options &o, const Value &v) { o.checkRun.cases = v.n; }},
    {"--replay", Kind::Path, Bound::Any, "<file>", CmdCheck,
     "replay one repro instead of generating cases",
     [](Options &o, const Value &v) { o.checkRun.replayPath = v.text; }},
    {"--no-shrink", Kind::Switch, Bound::Any, "", CmdCheck,
     "write failing cases unshrunk",
     [](Options &o, const Value &) { o.checkRun.shrinkFailures = false; }},
    {"--repro-dir", Kind::Path, Bound::Any, "<dir>", CmdCheck,
     "where failure repros land (default .)",
     [](Options &o, const Value &v) { o.checkRun.reproDir = v.text; }},
    {"--cook", Kind::Choice, Bound::Any, "none|tamper", CmdCheck,
     "tamper: every oracle must fail on a sabotaged observation",
     [](Options &o, const Value &v) {
         o.checkRun.cook = v.pick ? check::Cook::Tamper : check::Cook::None;
     }},
    {"--oracle", Kind::Path, Bound::Any, "<name>", CmdCheck,
     "run only this oracle",
     [](Options &o, const Value &v) { o.checkRun.oracle = v.text; }},
    {"--emit-corpus", Kind::Path, Bound::Any, "<dir>", CmdCheck,
     "write each oracle's shrunk tamper repro",
     [](Options &o, const Value &v) { o.checkRun.emitCorpusDir = v.text; }},

    // --- bench -------------------------------------------------------
    {"--reps", Kind::Integer, Bound::Positive, "<n>", CmdBench,
     "timed repetitions per case (default 3)",
     [](Options &o, const Value &v) { o.benchRun.repetitions = (int)v.n; }},
    {"--warmups", Kind::Integer, Bound::NonNegative, "<n>", CmdBench,
     "untimed warmup runs per case (default 1)",
     [](Options &o, const Value &v) { o.benchRun.warmups = (int)v.n; }},
    {"--case", Kind::Path, Bound::Any, "<name>", CmdBench,
     "run only this case (repeatable)",
     [](Options &o, const Value &v) { o.benchRun.only.push_back(v.text); }},
    {"--out", Kind::Path, Bound::Any, "<path>", CmdBench,
     "output path (default BENCH_<suite>.json)",
     [](Options &o, const Value &v) { o.benchOut = v.text; }},
    {"--no-timing", Kind::Switch, Bound::Any, "", CmdBench,
     "omit wall-clock fields: byte-identical JSON and table across reruns",
     [](Options &o, const Value &) { o.benchRun.includeTiming = false; }},
    {"--baseline", Kind::Path, Bound::Any, "<path>", CmdBench,
     "compare against a saved BENCH_*.json; exit 1 on regression",
     [](Options &o, const Value &v) { o.benchBaseline = v.text; }},
    {"--threshold", Kind::Real, Bound::Any, "<pct>", CmdBench,
     "allowed slowdown vs a timed baseline (default 10)",
     [](Options &o, const Value &v) { o.benchThreshold = v.x; }},
    {"--inject-slowdown", Kind::Real, Bound::NonNegative, "<pct>", CmdBench,
     "test hook: report throughput as if this much slower",
     [](Options &o, const Value &v) { o.benchRun.injectSlowdownPct = v.x; }},

    // --- every command -----------------------------------------------
    {"--profile", Kind::Switch, Bound::Any, "", CmdAll,
     "turn the src/perf profiler on (bench embeds it; ledgers gain"
     " perf sections)",
     [](Options &o, const Value &) {
         o.benchRun.profile = true;
         perf::setEnabled(true);
     }},
    {"--help", Kind::Switch, Bound::Any, "", CmdAll, "print this help",
     [](Options &, const Value &) {}},
};

std::string
lowered(const std::string &text)
{
    std::string out;
    for (char c : text)
        out += (char)std::tolower((unsigned char)c);
    return out;
}

/** Parse one value by its row's kind; fatal names flag and token. */
Value
parseValue(const OptionRow &row, const std::string &token)
{
    Value value;
    const bool positive = row.bound == Bound::Positive;
    const bool signless = row.bound == Bound::NonNegative;
    char *stop = nullptr;
    errno = 0;
    bool ok = !token.empty();
    switch (row.kind) {
      case Kind::Integer:
      case Kind::Count:
        // Digits only: strtoull alone would take a sign or blanks.
        ok = ok && std::all_of(token.begin(), token.end(), [](char c) {
                 return std::isdigit((unsigned char)c) != 0;
             });
        value.n = ok ? std::strtoull(token.c_str(), &stop, 10) : 0;
        ok = ok && errno != ERANGE && (!positive || value.n > 0) &&
             (row.kind == Kind::Count || value.n <= (std::uint64_t)INT_MAX);
        break;
      case Kind::Real:
        ok = ok && !std::isspace((unsigned char)token[0]);
        value.x = ok ? std::strtod(token.c_str(), &stop) : 0.0;
        ok = ok && stop == token.c_str() + token.size() && errno != ERANGE &&
             std::isfinite(value.x) && (!positive || value.x > 0.0) &&
             (!signless || value.x >= 0.0);
        break;
      case Kind::Choice: {
        std::istringstream names(row.meta);
        std::string name;
        ok = false;
        for (std::size_t i = 0; !ok && std::getline(names, name, '|'); ++i) {
            ok = name == lowered(token);
            value.pick = i;
        }
        break;
      }
      case Kind::Path:
      case Kind::Switch:
        ok = true;
        value.text = token;
        break;
    }
    if (!ok) {
        const std::string sign = positive   ? "positive "
                                 : signless ? "non-negative "
                                            : "";
        const std::string need =
            row.kind == Kind::Choice ? std::string("one of ") + row.meta
            : row.kind == Kind::Real ? "a finite " + sign + "number"
            : row.kind == Kind::Count
                ? "a " + sign + "integer"
                : "a " + sign + "integer of at most 2147483647";
        fatal("option '", row.name, "' needs ", need, ", got '", token, "'");
    }
    return value;
}

dnn::Network
findWorkload(const std::string &name)
{
    const std::string want = lowered(name);
    for (const auto &net : dnn::evaluationWorkloads()) {
        if (lowered(net.name) == want)
            return net;
    }
    if (want == "resnet18")
        return dnn::makeResNet18();
    if (want == "vgg19")
        return dnn::makeVgg19();
    fatal("unknown workload '", name, "'; run 'supernpu workloads'");
}

bool
tryConfig(const std::string &name, estimator::NpuConfig &out)
{
    const std::string want = lowered(name);
    if (want == "baseline") {
        out = estimator::NpuConfig::baseline();
    } else if (want == "bufferopt") {
        out = estimator::NpuConfig::bufferOpt();
    } else if (want == "resourceopt") {
        out = estimator::NpuConfig::resourceOpt();
    } else if (want == "supernpu") {
        out = estimator::NpuConfig::superNpu();
    } else {
        return false;
    }
    return true;
}

/** The chosen config's estimate on the chosen device. */
estimator::NpuEstimate
estimateFor(const Options &options)
{
    const sfq::CellLibrary library(options.device);
    return estimator::NpuEstimator(library).estimate(options.config);
}

/** The forced --batch, or the largest batch that fits on chip. */
int
batchFor(const Options &options, const estimator::NpuEstimate &estimate)
{
    return options.forcedBatch > 0
               ? options.forcedBatch
               : npusim::maxBatch(options.config, estimate, options.net);
}

/** Write the run ledger when --ledger was given; fatal on failure. */
void
emitLedger(const Options &options, const obs::RunLedger &ledger)
{
    if (options.ledgerFile.empty())
        return;
    if (perf::enabled()) {
        // Profiling on (--profile or SUPERNPU_PROFILE=1): fold the
        // profiler snapshot in (and check its roll-up invariants)
        // without disturbing the caller's ledger — the perf section
        // is wall-clock and must stay opt-in so default ledgers
        // remain byte-comparable.
        const perf::Report snapshot = perf::report();
        obs::enforce(obs::auditPerf(snapshot), "perf roll-up");
        obs::RunLedger with_perf = ledger;
        obs::addPerfReport(with_perf, snapshot);
        if (!with_perf.write(options.ledgerFile))
            fatal("cannot write ledger '", options.ledgerFile, "'");
    } else if (!ledger.write(options.ledgerFile)) {
        fatal("cannot write ledger '", options.ledgerFile, "'");
    }
    std::printf("wrote ledger to %s\n", options.ledgerFile.c_str());
}

/** A --sweep table's exact rows, as the ledger table `name`. */
void
addSweepTable(obs::RunLedger &ledger, const std::string &name,
              const std::vector<std::string> &columns,
              std::vector<std::vector<obs::Value>> rows)
{
    (void)ledger.table(name, columns);
    for (std::vector<obs::Value> &row : rows)
        ledger.addRow(name, std::move(row));
}

/** Enforce an audit when SUPERNPU_AUDIT (env or build) enables it. */
void
maybeAudit(const obs::AuditReport &audit, const std::string &context)
{
    if (obs::auditEnabled())
        obs::enforce(audit, context);
}

int
cmdWorkloads(const Options &)
{
    TextTable table("built-in workloads");
    table.row().cell("name").cell("layers").cell("GMAC/inf").cell(
        "weights (MiB)");
    auto add = [&](const dnn::Network &net) {
        table.row()
            .cell(lowered(net.name))
            .cell((long long)net.layers.size())
            .cell((double)net.totalMacs() / 1e9, 2)
            .cell((double)net.totalWeightBytes() / (double)units::MiB,
                  1);
    };
    for (const auto &net : dnn::evaluationWorkloads())
        add(net);
    add(dnn::makeResNet18());
    add(dnn::makeVgg19());
    table.print();
    return 0;
}

int
cmdEstimate(const Options &options)
{
    const auto estimate = estimateFor(options);

    std::printf("%s @ %s %.2f um\n", options.config.name.c_str(),
                sfq::technologyName(options.device.technology),
                options.device.featureSizeUm);
    TextTable table;
    table.row().cell("unit").cell("freq (GHz)").cell("static (W)").cell(
        "area (mm2)").cell("MJJ");
    for (const auto &unit : estimate.units) {
        table.row()
            .cell(unit.name)
            .cell(unit.frequencyGhz, 1)
            .cell(unit.staticPowerW, 2)
            .cell(unit.areaMm2, 1)
            .cell((double)unit.jjCount / 1e6, 1);
    }
    table.row()
        .cell("TOTAL")
        .cell(estimate.frequencyGhz, 1)
        .cell(estimate.staticPowerW, 2)
        .cell(estimate.areaMm2, 1)
        .cell((double)estimate.jjCount / 1e6, 1);
    table.print();
    std::printf("\nlimited by %s; peak %.0f TMAC/s; %.0f mm2 at 28 nm"
                " equivalent\n",
                estimate.limitingUnit.c_str(),
                estimate.peakMacPerSec / 1e12,
                estimate.areaMm2At(28.0));

    const auto findings =
        estimator::checkDesignRules(options.config, estimate);
    for (const auto &finding : findings) {
        std::printf("%s [%s]: %s\n",
                    finding.severity ==
                            estimator::RuleSeverity::Error
                        ? "ERROR"
                        : "warning",
                    finding.rule.c_str(), finding.message.c_str());
    }
    return estimator::designIsOperable(findings) ? 0 : 1;
}

int
cmdSimulate(const Options &options)
{
    const dnn::Network &net = options.net;
    const auto estimate = estimateFor(options);
    npusim::NpuSimulator sim(estimate);
    npusim::TraceRecorder trace;
    if (!options.traceFile.empty())
        sim.setTrace(&trace);
    const int batch = batchFor(options, estimate);
    const auto run = sim.run(net, batch);
    const auto report = power::analyze(estimate, run);

    if (!options.traceFile.empty()) {
        std::ofstream out(options.traceFile);
        if (!out)
            fatal("cannot write '", options.traceFile, "'");
        out << trace.csv();
        std::printf("wrote %zu mapping events to %s\n",
                    trace.events().size(), options.traceFile.c_str());
    }

    std::printf("%s on %s (%s), batch %d\n", net.name.c_str(),
                options.config.name.c_str(),
                sfq::technologyName(options.device.technology), batch);
    std::printf("  %.1f GHz, %llu cycles, %.2f us/batch\n",
                run.frequencyGhz,
                (unsigned long long)run.totalCycles,
                run.seconds() * 1e6);
    std::printf("  %.1f TMAC/s effective (%.1f%% of peak),"
                " %.1f%% preparation\n",
                run.effectiveMacPerSec() / 1e12,
                100.0 * run.effectiveMacPerSec() /
                    estimate.peakMacPerSec,
                100.0 * run.preparationFraction());
    std::printf("  power: %.2f W chip (%.2f static + %.2f dynamic),"
                " %.0f W with 400x cooling\n",
                report.chipW(), report.staticW, report.dynamicW,
                report.totalWithCoolingW());
    std::printf("  DRAM traffic: %.1f MiB\n",
                (double)run.dramBytes / (double)units::MiB);

    maybeAudit(obs::auditSim(run), net.name);
    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        obs::addSimResult(ledger, run);
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdReport(const Options &options)
{
    const dnn::Network &net = options.net;
    const auto estimate = estimateFor(options);
    npusim::NpuSimulator sim(estimate);
    const int batch = batchFor(options, estimate);
    const auto run = sim.run(net, batch);

    // `report` is the audited machine interface: invariants always
    // run here, regardless of the SUPERNPU_AUDIT toggle, and any
    // violation is a non-zero exit.
    obs::enforce(obs::auditSim(run), "report " + net.name);

    obs::RunLedger ledger;
    obs::addSimResult(ledger, run);
    obs::addSimCacheStats(ledger, npusim::SimCache::global().stats());
    if (!options.ledgerFile.empty()) {
        if (!ledger.write(options.ledgerFile))
            fatal("cannot write ledger '", options.ledgerFile, "'");
    }
    // JSON is the default (and only) stdout format; --json is a no-op.
    std::fputs(ledger.json().c_str(), stdout);
    return 0;
}

int
cmdBatch(const Options &options)
{
    const dnn::Network &net = options.net;
    const auto estimate = estimateFor(options);
    std::printf("%s on %s: max on-chip batch %d\n", net.name.c_str(),
                options.config.name.c_str(),
                batchFor(options, estimate));
    return 0;
}

/**
 * The serving config of `serve` and `faults`: the parsed serving
 * flags, the batch cap (forced or the solver's), and the placement
 * (--stages, --dp, link), checked before any model work.
 */
serving::ServingConfig
servingConfigFor(const Options &options,
                 const estimator::NpuEstimate &estimate)
{
    serving::ServingConfig serve = options.serve;
    serve.batching.maxBatch = batchFor(options, estimate);
    if (options.stages > 0)
        serve.pipelineStages = options.stages;
    if (options.dataParallel > 0)
        serve.dataParallelReplicas = options.dataParallel;
    serve.link = options.link;
    serve.check();
    return serve;
}

int
cmdServe(const Options &options)
{
    const dnn::Network &net = options.net;
    const auto estimate = estimateFor(options);

    const serving::ServingConfig serve =
        servingConfigFor(options, estimate);

    serving::BatchServiceModel service(estimate, net);
    serving::ServingSimulator sim(service, serve);
    const auto report = sim.run();
    report.print();
    std::printf("\nchip capacity at full batch: %.0f req/s x %d chips"
                " = %.0f req/s; served %.0f req/s at p99 %.4f ms\n",
                service.peakRps(serve.batching.maxBatch), serve.chips,
                service.peakRps(serve.batching.maxBatch) *
                    (double)serve.chips,
                report.throughputRps, report.latencyP99 * 1e3);

    maybeAudit(obs::auditServing(report), "serve " + net.name);
    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        obs::addServingReport(ledger, report);
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdFaults(const Options &options)
{
    const dnn::Network &net = options.net;
    const auto estimate = estimateFor(options);

    serving::ServingConfig serve =
        servingConfigFor(options, estimate);
    const int batch = serve.batching.maxBatch;

    // --- what one flux trap costs in cycles -------------------------
    reliability::FaultInjector injector(estimate);
    const auto one_trap = [&](reliability::FluxTrapTarget target) {
        reliability::FaultScheduleConfig cfg;
        reliability::FaultEvent event;
        event.kind = reliability::FaultKind::FluxTrap;
        event.trapTarget = target;
        event.magnitude = cfg.fluxTrapDerate;
        return reliability::FaultSchedule::fromEvents(cfg, {event});
    };
    const auto clean = injector.run(net, batch, {}, 0);
    const auto lost_col =
        injector.run(net, batch,
                     one_trap(reliability::FluxTrapTarget::PeColumn), 0);
    const auto lost_chunk = injector.run(
        net, batch, one_trap(reliability::FluxTrapTarget::BufferChunk),
        0);

    std::printf("%s on %s, batch %d: flux-trap degradation\n",
                net.name.c_str(), options.config.name.c_str(), batch);
    TextTable degraded;
    degraded.row().cell("geometry").cell("cycles").cell("us/batch").cell(
        "service x");
    const auto degraded_row = [&](const char *label, const auto &run) {
        degraded.row()
            .cell(label)
            .cell((unsigned long long)run->totalCycles)
            .cell(run->seconds() * 1e6, 2)
            .cell(run->seconds() / clean->seconds(), 3);
    };
    degraded_row("pristine", clean);
    degraded_row("-1 PE column", lost_col);
    degraded_row("-1 buffer chunk", lost_chunk);
    degraded.print();

    // The serving trap derate comes from the remapped cycle counts,
    // not a guessed constant.
    const double trap_derate = injector.serviceDerate(
        net, batch, one_trap(reliability::FluxTrapTarget::PeColumn), 0);

    // --- functional error propagation -------------------------------
    // The functional path walks sequential chains only; branching
    // networks (residual projections) study bit-error propagation on
    // a small sequential probe instead.
    dnn::Network ber_net = net;
    if (!reliability::canPropagate(ber_net)) {
        ber_net = dnn::Network{};
        ber_net.name = "BerProbe";
        ber_net.layers = {dnn::conv("probe1", 3, 32, 16, 3),
                          dnn::conv("probe2", 16, 32, 32, 3),
                          dnn::conv("probe3", 32, 16, 32, 3)};
        ber_net.check();
        std::printf("\n%s branches; propagating bit errors through"
                    " the sequential probe network instead\n",
                    net.name.c_str());
    }
    const auto errors = reliability::propagateErrors(
        ber_net, options.berFlipsPerMillion, options.faults.seed);
    std::printf("\nerror propagation at %.2f flips per MMAC"
                " (%llu flips total)\n",
                options.berFlipsPerMillion,
                (unsigned long long)errors.totalFlips());
    TextTable prop;
    prop.row().cell("layer").cell("flips").cell("wrong %").cell(
        "mean |err|").cell("max |err|");
    for (const auto &layer : errors.layers) {
        prop.row()
            .cell(layer.layer)
            .cell((unsigned long long)layer.flips)
            .cell(layer.fracWrong * 100.0, 3)
            .cell(layer.meanAbsError, 4)
            .cell((long long)layer.maxAbsError);
    }
    prop.print();

    // --- serving under the fault schedule ---------------------------
    reliability::FaultScheduleConfig fault_cfg = options.faults;
    if (!options.faultRateGiven) {
        // Demonstrative defaults when no rate was given.
        fault_cfg.pulseDropRatePerSec = 20.0;
        fault_cfg.fluxTrapRatePerSec = 0.05;
        fault_cfg.clockSkewRatePerSec = 5.0;
        fault_cfg.linkGlitchRatePerSec = 10.0;
    }
    fault_cfg.chips = serve.chips;
    fault_cfg.fluxTrapDerate = std::max(1.0, trap_derate);
    fault_cfg.horizonSec = std::max(
        1.0, 2.0 * (double)serve.requests /
                 std::max(serve.arrival.ratePerSec, 1.0));
    serve.faults = reliability::FaultSchedule::generate(fault_cfg);
    std::printf("\nfault schedule: %zu events over %.1f s x %d chips"
                " (seed %llu)\n",
                serve.faults.size(), fault_cfg.horizonSec, serve.chips,
                (unsigned long long)fault_cfg.seed);

    serving::BatchServiceModel service(estimate, net);
    serving::ServingSimulator sim(service, serve);
    const auto report = sim.run();
    report.print();
    std::printf("\navailability %.2f%%, goodput %.0f of %.0f req/s"
                " under policy %s\n",
                report.availability * 100.0, report.goodputRps,
                report.throughputRps, report.recovery.c_str());

    obs::AuditReport audit = obs::auditSim(*clean);
    audit.merge(obs::auditServing(report));
    maybeAudit(audit, "faults " + net.name);
    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        obs::addServingReport(ledger, report);
        obs::addFaultSchedule(ledger, serve.faults);
        obs::addSimCacheStats(ledger,
                              npusim::SimCache::global().stats());
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdPartition(const Options &options)
{
    const dnn::Network &net = options.net;
    const auto estimate = estimateFor(options);

    const int batch = batchFor(options, estimate);
    const int stages = options.stages > 0 ? options.stages : 4;
    const int batches = options.streamBatches;

    partition::PipelineSimulator pipeline(
        estimate, options.link, &npusim::SimCache::global());
    const auto run = pipeline.run(net, stages, batch, batches);
    const auto &plan = run.plan;

    std::printf("%s on %s across %d chip(s), batch %d,"
                " %d-batch stream\n",
                net.name.c_str(), options.config.name.c_str(),
                plan.stageCount(), batch, batches);
    std::printf("link: %.0f GB/s, %llu-cycle latency\n",
                plan.link.bandwidthGBps,
                (unsigned long long)plan.link.latencyCycles);

    TextTable table;
    table.row()
        .cell("stage")
        .cell("layers")
        .cell("range")
        .cell("cycles")
        .cell("link KiB")
        .cell("link cyc")
        .cell("util");
    for (int s = 0; s < plan.stageCount(); ++s) {
        const auto &stage = plan.stages[s];
        std::string range = std::to_string(stage.firstLayer);
        range += "..";
        range += std::to_string(stage.lastLayer);
        table.row()
            .cell((long long)s)
            .cell((long long)stage.layerCount())
            .cell(range)
            .cell((unsigned long long)stage.stageCycles)
            .cell((double)stage.linkBytes / 1024.0, 1)
            .cell((unsigned long long)stage.linkCycles)
            .cell(plan.stageUtilization(s), 3);
    }
    table.print();

    // The K=1 reference gives the honest speedup; it shares the
    // stream's sim cache, so this costs one memoized lookup.
    const auto solo = pipeline.run(net, 1, batch, batches);
    std::printf("\nbottleneck: stage %d (%llu cycles/batch);"
                " fill latency %.2f us\n",
                plan.bottleneckStage,
                (unsigned long long)plan.bottleneckCycles,
                plan.fillLatencySec() * 1e6);
    std::printf("steady state: %.0f inf/s (%.2fx over 1 chip),"
                " %.1f TMAC/s\n",
                run.steadyInferencesPerSec(),
                run.steadyInferencesPerSec() /
                    solo.steadyInferencesPerSec(),
                run.effectiveMacPerSec() / 1e12);

    obs::AuditReport audit = obs::auditPipeline(run);
    audit.merge(obs::auditPipeline(solo));
    maybeAudit(audit, "partition " + net.name);

    // The sweep's exact values, for the ledger.
    std::vector<std::vector<obs::Value>> sweep_rows;
    if (options.sweep) {
        std::printf("\n");
        TextTable sweep("pipeline K-sweep");
        sweep.row()
            .cell("K")
            .cell("inf/s")
            .cell("speedup")
            .cell("fill us")
            .cell("mean util");
        for (int k : {1, 2, 4, 8}) {
            if (k > (int)net.layers.size())
                break;
            const auto swept = pipeline.run(net, k, batch, batches);
            double util_sum = 0.0;
            for (int s = 0; s < swept.plan.stageCount(); ++s)
                util_sum += swept.plan.stageUtilization(s);
            const double speedup = swept.steadyInferencesPerSec() /
                                   solo.steadyInferencesPerSec();
            const double mean_util =
                util_sum / (double)swept.plan.stageCount();
            sweep.row()
                .cell((long long)k)
                .cell(swept.steadyInferencesPerSec(), 0)
                .cell(speedup, 2)
                .cell(swept.plan.fillLatencySec() * 1e6, 2)
                .cell(mean_util, 3);
            sweep_rows.push_back(
                {obs::Value::integer((std::uint64_t)k),
                 obs::Value::real(swept.steadyInferencesPerSec()),
                 obs::Value::real(speedup),
                 obs::Value::real(swept.plan.fillLatencySec()),
                 obs::Value::real(mean_util)});
        }
        sweep.print();
    }

    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        obs::addPipelineResult(ledger, run);
        obs::addSimCacheStats(ledger,
                              npusim::SimCache::global().stats());
        if (options.sweep)
            addSweepTable(ledger, "pipelineSweep",
                          {"stages", "inferencesPerSec", "speedup",
                           "fillLatencySec", "meanUtilization"},
                          std::move(sweep_rows));
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdShard(const Options &options)
{
    const dnn::Network &net = options.net;
    const auto estimate = estimateFor(options);

    const int batch = batchFor(options, estimate);

    sharding::HybridPlanner planner(estimate, options.link,
                                    &npusim::SimCache::global());
    // Like bench, the search defaults to the byte-stable serial walk;
    // any --jobs value produces identical output (and ledgers), so
    // the flag is purely a wall-clock knob here.
    const int jobs = options.jobs > 0 ? options.jobs : 1;

    // Any explicit degree flag pins that factorization; otherwise
    // the planner searches the --chips budget. The budget also sets
    // the --sweep points below, so it is resolved either way.
    const int budget = options.chipBudget;
    const bool fixed_point = options.dataParallel > 0 ||
                             options.tensorShards > 0 ||
                             options.stages > 0;
    sharding::ShardPlan plan;
    if (fixed_point) {
        plan = planner.evaluate(net,
                                std::max(options.dataParallel, 1),
                                std::max(options.tensorShards, 1),
                                std::max(options.stages, 1), batch);
    } else {
        const sharding::PlanSearch search =
            planner.plan(net, budget, batch, options.objective, jobs);
        plan = search.best();
        std::printf("planned %zu factorizations of <= %d chip(s)"
                    " for %s\n",
                    search.evaluated.size(), budget,
                    sharding::planObjectiveName(options.objective));
    }

    std::printf("%s on %s: dp %d x tp %d x pp %d = %d chip(s),"
                " batch %d (share %d)\n",
                net.name.c_str(), options.config.name.c_str(),
                plan.dataParallel, plan.tensorShards,
                plan.pipelineStages, plan.chips(), plan.batch,
                plan.replicaShare);
    std::printf("link: %.0f GB/s, %llu-cycle latency\n",
                plan.link.bandwidthGBps,
                (unsigned long long)plan.link.latencyCycles);

    TextTable table;
    table.row()
        .cell("stage")
        .cell("range")
        .cell("stage cyc")
        .cell("coll cyc")
        .cell("occupancy")
        .cell("link KiB");
    for (int s = 0; s < plan.pipelineStages; ++s) {
        const auto &stage = plan.pipeline.stages[s];
        std::string range = std::to_string(stage.firstLayer);
        range += "..";
        range += std::to_string(stage.lastLayer);
        table.row()
            .cell((long long)s)
            .cell(range)
            .cell((unsigned long long)stage.stageCycles)
            .cell((unsigned long long)
                      plan.stageCollectiveCycles[(std::size_t)s])
            .cell((unsigned long long)
                      plan.stageOccupancyCycles[(std::size_t)s])
            .cell((double)stage.linkBytes / 1024.0, 1);
    }
    table.print();

    std::printf("\ninterval %llu cyc, latency %llu cyc, DP gather"
                " %llu cyc (%.1f KiB)\n",
                (unsigned long long)plan.intervalCycles,
                (unsigned long long)plan.latencyCycles,
                (unsigned long long)plan.gatherCycles,
                (double)plan.gatherBytes / 1024.0);
    std::printf("steady state: %.0f inf/s (%.2fx over 1 chip),"
                " %.1f TMAC/s\n",
                plan.throughput(), plan.speedup(),
                plan.effectiveMacPerSec() / 1e12);

    obs::AuditReport audit = obs::auditSharding(plan);

    // The sweep's exact values, for the ledger.
    std::vector<std::vector<obs::Value>> sweep_rows;
    if (options.sweep) {
        std::printf("\n");
        TextTable sweep("shard budget sweep");
        sweep.row()
            .cell("chips")
            .cell("dp")
            .cell("tp")
            .cell("pp")
            .cell("inf/s")
            .cell("speedup")
            .cell("latency us");
        // Powers of two up to the effective budget, plus the budget
        // itself, so the table always covers the headline search.
        std::vector<int> sweep_budgets;
        for (int b = 1; b < budget; b *= 2)
            sweep_budgets.push_back(b);
        sweep_budgets.push_back(budget);
        for (int sweep_budget : sweep_budgets) {
            // A searched headline is already the full budget's row.
            const sharding::ShardPlan best =
                !fixed_point && sweep_budget == budget
                    ? plan
                    : planner
                          .plan(net, sweep_budget, batch,
                                options.objective, jobs)
                          .best();
            audit.merge(obs::auditSharding(best));
            sweep.row()
                .cell((long long)sweep_budget)
                .cell((long long)best.dataParallel)
                .cell((long long)best.tensorShards)
                .cell((long long)best.pipelineStages)
                .cell(best.throughput(), 0)
                .cell(best.speedup(), 2)
                .cell(best.latencySec() * 1e6, 2);
            sweep_rows.push_back(
                {obs::Value::integer((std::uint64_t)sweep_budget),
                 obs::Value::integer((std::uint64_t)best.dataParallel),
                 obs::Value::integer((std::uint64_t)best.tensorShards),
                 obs::Value::integer(
                     (std::uint64_t)best.pipelineStages),
                 obs::Value::real(best.throughput()),
                 obs::Value::real(best.speedup()),
                 obs::Value::real(best.latencySec())});
        }
        sweep.print();
    }

    maybeAudit(audit, "shard " + net.name);
    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        obs::addShardPlan(ledger, plan);
        obs::addSimCacheStats(ledger,
                              npusim::SimCache::global().stats());
        obs::addLayerTimingCacheStats(ledger,
                                      planner.timingCacheStats());
        if (options.sweep)
            addSweepTable(ledger, "shardSweep",
                          {"chips", "dataParallel", "tensorShards",
                           "pipelineStages", "inferencesPerSec",
                           "speedup", "latencySec"},
                          std::move(sweep_rows));
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdValidate(const Options &options)
{
    sfq::CellLibrary library(options.device);
    TextTable table("model validation (Fig. 13)");
    table.row().cell("unit").cell("metric").cell("model").cell(
        "reference").cell("error %");
    for (const auto &e : estimator::validationReport(library)) {
        table.row()
            .cell(e.unit)
            .cell(e.metric)
            .cell(e.modelValue, 3)
            .cell(e.referenceValue, 3)
            .cell(e.errorPercent(), 1);
    }
    table.print();
    return 0;
}

int
cmdExplore(const Options &options)
{
    sfq::CellLibrary library(options.device);
    npusim::DesignSpaceExplorer explorer(
        library, dnn::evaluationWorkloads());
    ThreadPool pool(options.jobs);
    const auto ranked = explorer.explore(npusim::ExplorationSpace{},
                                         npusim::Objective::Throughput,
                                         pool);

    TextTable table("design-space leaderboard (throughput)");
    table.row()
        .cell("rank")
        .cell("config")
        .cell("avg TMAC/s")
        .cell("chip W")
        .cell("area mm2");
    int rank = 1;
    for (const auto &cand : ranked) {
        if (!cand.operable)
            continue;
        table.row()
            .cell((long long)rank++)
            .cell(cand.config.name)
            .cell(cand.avgMacPerSec / 1e12, 1)
            .cell(cand.chipPowerW, 1)
            .cell(cand.areaMm2, 0);
        if (rank > 8)
            break;
    }
    table.print();
    // Diagnostics go to stderr: stdout must be byte-identical at
    // every --jobs value.
    const auto stats = npusim::SimCache::global().stats();
    std::fprintf(stderr,
                 "%d jobs; sim cache: %llu misses (simulated), %llu"
                 " hits\n",
                 options.jobs > 0 ? options.jobs
                                  : ThreadPool::hardwareConcurrency(),
                 (unsigned long long)stats.misses,
                 (unsigned long long)stats.hits);

    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        std::uint64_t operable = 0;
        for (const auto &cand : ranked)
            operable += cand.operable ? 1 : 0;
        ledger.setInt("explore", "candidates", ranked.size());
        ledger.setInt("explore", "operable", operable);
        if (!ranked.empty() && ranked.front().operable) {
            ledger.setText("explore", "best", ranked.front().config.name);
            ledger.setReal("explore", "bestMacPerSec",
                           ranked.front().avgMacPerSec);
        }
        obs::addSimCacheStats(ledger, stats);
        obs::addPoolStats(ledger, pool.stats());
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdBench(const Options &options)
{
    bench::BenchOptions opts = options.benchRun;
    // Unlike explore, the reference point is serial: the committed
    // baseline and the CI determinism check both run at --jobs 1.
    opts.jobs = options.jobs > 0 ? options.jobs : 1;

    const bench::BenchReport report = bench::runSuite(opts);

    TextTable table("bench " + opts.suite);
    table.row()
        .cell("case")
        .cell("work")
        .cell("median ms")
        .cell("throughput")
        .cell("unit");
    // Under --no-timing stdout is as rerun-stable as the JSON.
    for (const auto &c : report.cases) {
        TextTable &row = table.row().cell(c.name).cell((long long)c.work);
        if (opts.includeTiming)
            row.cell(c.medianWallSec * 1e3, 2).cell(c.throughput, 1);
        else
            row.cell("-").cell("-");
        row.cell(c.unit);
    }
    table.print();

    const std::string out = options.benchOut.empty()
                                ? bench::defaultOutputPath(opts.suite)
                                : options.benchOut;
    if (!bench::writeBenchJson(report, opts.includeTiming, out))
        fatal("cannot write bench output '", out, "'");
    std::printf("wrote %s\n", out.c_str());

    if (options.benchBaseline.empty())
        return 0;
    std::ifstream file(options.benchBaseline);
    if (!file)
        fatal("cannot open baseline '", options.benchBaseline, "'");
    std::ostringstream text;
    text << file.rdbuf();
    const bench::CompareOutcome outcome = bench::compareToBaseline(
        report, text.str(), options.benchThreshold);
    if (!outcome.error.empty())
        fatal("baseline comparison failed: ", outcome.error);
    for (const auto &delta : outcome.deltas) {
        if (!delta.comparable) {
            std::printf("  %-22s skipped: %s\n", delta.name.c_str(),
                        delta.note.c_str());
        } else if (delta.baselineThroughput > 0.0) {
            std::printf("  %-22s %.2fx baseline throughput%s\n",
                        delta.name.c_str(),
                        delta.currentThroughput /
                            delta.baselineThroughput,
                        delta.regressed ? "  REGRESSED" : "");
        } else {
            std::printf("  %-22s %s\n", delta.name.c_str(),
                        delta.note.c_str());
        }
    }
    if (!outcome.ok) {
        std::fprintf(stderr,
                     "bench: regression beyond %.1f%% threshold\n",
                     options.benchThreshold);
        return 1;
    }
    std::printf("baseline check passed (threshold %.1f%%)\n",
                options.benchThreshold);
    return 0;
}

int
cmdCheck(const Options &options)
{
    const sfq::CellLibrary library(options.device);
    check::RunnerOptions runner = options.checkRun;
    runner.seed = options.serve.seed;
    // Serial by default like bench; any --jobs value produces the
    // same tallies, warns, and repro bytes, so the flag only buys
    // wall clock (the CI check job runs with --jobs).
    runner.jobs = options.jobs > 0 ? options.jobs : 1;
    return check::runCheck(runner, library);
}

/**
 * The positional a command takes besides options and, for the
 * CmdConfig commands, a config name.
 */
enum class Args
{
    None,     ///< nothing
    Workload, ///< a workload name, unless --netfile gives the network
    Suite,    ///< an optional bench suite
};

/** One row of the command table. */
struct Command
{
    const char *name;
    unsigned bit; ///< the command's Cmd* bit
    Args args;
    const char *synopsis; ///< the arguments, for usage text
    const char *summary;
    int (*run)(const Options &);
};

const Command kCommands[] = {
    {"workloads", CmdWorkloads, Args::None, "", "list the built-in CNNs",
     cmdWorkloads},
    {"estimate", CmdEstimate, Args::None, "[config]",
     "frequency, power and area of an architecture", cmdEstimate},
    {"simulate", CmdSimulate, Args::Workload, "<workload> [config]",
     "cycle-level performance and power", cmdSimulate},
    {"batch", CmdBatch, Args::Workload, "<workload> [config]",
     "the Table II maximum on-chip batch", cmdBatch},
    {"serve", CmdServe, Args::Workload, "<workload> [config]",
     "serving simulation: load, batching, dispatch, tail latency",
     cmdServe},
    {"faults", CmdFaults, Args::Workload, "<workload> [config]",
     "fault-injection study and serving under a fault schedule",
     cmdFaults},
    {"report", CmdReport, Args::Workload, "<workload> [config]",
     "audited run ledger as JSON on stdout", cmdReport},
    {"partition", CmdPartition, Args::Workload, "<workload> [config]",
     "multi-chip pipeline partition", cmdPartition},
    {"shard", CmdShard, Args::Workload, "<workload> [config]",
     "DPxTPxPP plan: a fixed --dp/--tp/--stages point or a --chips"
     " search",
     cmdShard},
    {"check", CmdCheck, Args::None, "",
     "differential and metamorphic fuzz harness", cmdCheck},
    {"validate", CmdValidate, Args::None, "",
     "the Fig. 13 model-validation table", cmdValidate},
    {"explore", CmdExplore, Args::None, "", "design-space sweep",
     cmdExplore},
    {"bench", CmdBench, Args::Suite, "[smoke|full]",
     "performance harness, written as BENCH_<suite>.json", cmdBench},
};

const char *const kConfigs =
    "configs: baseline bufferopt resourceopt supernpu (default)\n";

/** The command list; returns the usage exit status. */
int
usage(std::FILE *to = stderr)
{
    std::fprintf(to, "usage: supernpu <command> [arguments] [options]\n");
    for (const Command &command : kCommands) {
        const std::string head =
            std::string(command.name) + " " + command.synopsis;
        std::fprintf(to, "  %-30s %s\n", head.c_str(), command.summary);
    }
    std::fprintf(to, "%srun 'supernpu <command> --help' for its options\n",
                 kConfigs);
    return 2;
}

/** One command's arguments and options, from the two tables. */
void
printHelp(const Command &command)
{
    std::printf("usage: supernpu <command> [arguments] [options]\n"
                "       supernpu %s %s%s[options]\n%s\n",
                command.name, command.synopsis,
                *command.synopsis ? " " : "", command.summary);
    if (command.bit & CmdConfig)
        std::fputs(kConfigs, stdout);
    std::printf("options:\n");
    for (const OptionRow &row : kOptions) {
        if (!(row.commands & command.bit))
            continue;
        const std::string head =
            std::string(row.name) + (*row.meta ? " " : "") + row.meta;
        std::printf("  %-31s %s\n", head.c_str(), row.help);
    }
}

/** The usage line every command-line error starts with. */
void
usageLine(const Command &command)
{
    std::fprintf(stderr, "usage: supernpu %s [options]; run 'supernpu %s"
                 " --help'\n", command.name, command.name);
}

/**
 * Parse argv[2..] for `command`: every flag through the option table,
 * then the positionals by the command's Args. The flags apply after
 * the positional config, so they override it wherever they stand.
 */
Options
parseCommandLine(int argc, char **argv, const Command &command)
{
    Options options;
    std::vector<std::pair<const OptionRow *, Value>> flags;
    std::vector<std::string> positional;
    bool config_chosen = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (!config_chosen && (command.bit & CmdConfig) &&
                tryConfig(arg, options.config)) {
                config_chosen = true;
            } else {
                positional.push_back(arg);
            }
            continue;
        }
        const auto row = std::find_if(
            std::begin(kOptions), std::end(kOptions),
            [&](const OptionRow &r) { return arg == r.name; });
        if (row == std::end(kOptions)) {
            usageLine(command);
            fatal("unknown option '", arg, "'");
        }
        if (!(row->commands & command.bit)) {
            usageLine(command);
            fatal("option '", arg, "' does not apply to '", command.name,
                  "'");
        }
        if (row->kind != Kind::Switch && i + 1 >= argc)
            fatal("option '", arg, "' needs a value");
        flags.emplace_back(row, row->kind == Kind::Switch
                                     ? Value{}
                                     : parseValue(*row, argv[++i]));
    }
    for (const auto &[row, value] : flags)
        row->set(options, value);
    options.config.check();

    // Each command takes at most one positional besides the config.
    const bool needs_net =
        command.args == Args::Workload && options.netFile.empty();
    if (needs_net && positional.empty())
        fatal("'", command.name, "' needs a workload name or --netfile");
    const std::size_t allowed =
        needs_net || command.args == Args::Suite ? 1 : 0;
    if (positional.size() > allowed) {
        usageLine(command);
        fatal("unexpected argument '", positional[allowed], "'");
    }
    if (needs_net) {
        options.net = findWorkload(positional.front());
    } else if (command.args == Args::Workload) {
        std::ifstream file(options.netFile);
        if (!file)
            fatal("cannot open '", options.netFile, "'");
        std::ostringstream text;
        text << file.rdbuf();
        options.net = dnn::parseNetwork(text.str());
    } else if (!positional.empty()) {
        options.benchRun.suite = lowered(positional.front());
    }
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const auto command = std::find_if(
        std::begin(kCommands), std::end(kCommands),
        [&](const Command &c) { return !std::strcmp(argv[1], c.name); });
    const bool known = command != std::end(kCommands);
    // --help anywhere on the line wins: usage on stdout, exit 0.
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--help") ||
            !std::strcmp(argv[i], "-h")) {
            if (known)
                printHelp(*command);
            else
                usage(stdout);
            return 0;
        }
    }
    if (!known)
        return usage();
    return command->run(parseCommandLine(argc, argv, *command));
}
