/**
 * @file
 * The unified bench harness: one curated suite of end-to-end
 * performance cases over the simulator stack, timed with
 * warmup + repetition + median-of-N, exported as a schema-versioned
 * BENCH_<suite>.json, and comparable against a saved baseline.
 *
 * The per-figure binaries under bench/ reproduce *paper numbers*;
 * this harness measures the *simulator itself* — how many cycle
 * simulations, served requests, calendar events, and partition plans
 * per second the host sustains — so a PR that slows the hot paths
 * shows up as a number, not a hunch. Six cases cover the stack:
 *
 *   micro_kernels      cycle simulator across the evaluation
 *                      workloads (sims/sec)
 *   sweep_scaling      cold-cache design-space sweep on the thread
 *                      pool (candidates/sec)
 *   serving_tail_latency  discrete-event serving run near capacity
 *                      (requests/sec)
 *   fault_sweep        serving under a seeded fault schedule with
 *                      retries (requests/sec)
 *   pipeline_scaling   partition + pipeline composition at
 *                      K = 1/2/4 (plans/sec)
 *   shard_scaling      hybrid DP×TP×PP planner search over chip
 *                      budgets 1/2/4 (plans/sec)
 *
 * Output discipline: every case records deterministic uint64 work
 * metrics (cycles, requests, events, a rank fingerprint) next to its
 * wall-clock timing. With timing excluded (--no-timing) the JSON is
 * byte-identical across reruns at a fixed --jobs — that is the file
 * CI byte-compares and the form the committed baseline is stored in,
 * while the timed form feeds --baseline/--threshold regression
 * checks. Metrics are additionally required to be identical across
 * the repetitions of one run (the harness fatals otherwise), so a
 * nondeterministic simulator cannot hide behind timing noise.
 */

#ifndef SUPERNPU_PERF_BENCH_RUNNER_HH
#define SUPERNPU_PERF_BENCH_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "perf/profile.hh"

namespace supernpu {
namespace bench {

/** Schema identifier embedded in every BENCH_*.json. */
constexpr const char *kBenchSchema = "supernpu-bench-v1";

/** How to run the suite. */
struct BenchOptions
{
    /** "smoke" (CI-sized) or "full". */
    std::string suite = "smoke";
    int repetitions = 3; ///< timed runs per case (median reported)
    int warmups = 1;     ///< untimed runs per case before timing
    int jobs = 1;        ///< ThreadPool width for sweep cases
    /** Emit wall-clock fields; off for determinism checks. */
    bool includeTiming = true;
    /** Record perf phases/counters per case into the report. */
    bool profile = false;
    /**
     * Test hook: report throughput as if the harness had slowed
     * down by this percentage. Lets tests and CI prove the
     * --baseline/--threshold gate actually fails on a regression.
     */
    double injectSlowdownPct = 0.0;
    /** When non-empty, run only the named cases. */
    std::vector<std::string> only;
};

/** One deterministic work metric of a case. */
struct Metric
{
    std::string name;
    std::uint64_t value = 0;
};

/** Everything measured for one case. */
struct CaseResult
{
    std::string name;
    std::string unit;         ///< throughput unit, e.g. "sims/sec"
    std::uint64_t work = 0;   ///< work items per repetition
    std::vector<Metric> metrics; ///< deterministic, name-sorted

    std::vector<double> wallSec; ///< per timed repetition
    double medianWallSec = 0.0;
    double throughput = 0.0;     ///< work / medianWallSec

    /** Per-case profiler snapshot (only with BenchOptions::profile). */
    perf::Report profile;
};

/** One harness invocation's results. */
struct BenchReport
{
    std::string suite;
    int repetitions = 0;
    int warmups = 0;
    int jobs = 0;
    /** BenchOptions::includeTiming of the run. */
    bool timed = true;
    std::vector<CaseResult> cases;
};

/** Names of the cases a suite would run, in execution order. */
std::vector<std::string> suiteCaseNames(const std::string &suite);

/** Run the suite. Fatals on unknown suite/case names. */
BenchReport runSuite(const BenchOptions &options);

/**
 * Stretch every wall sample of `result` by 1 + slowdown_pct/100 and
 * recompute its median and throughput from them: how runSuite turns
 * the measured samples into a case's timing, with
 * BenchOptions::injectSlowdownPct as the slowdown.
 */
void settleTiming(CaseResult &result, double slowdown_pct);

/**
 * Render the report as deterministic-layout JSON. With
 * `include_timing` false, every wall-clock-derived field (the
 * "timing" and "profile" objects) is omitted and the document is a
 * pure function of (code, suite, jobs) — byte-identical across
 * reruns.
 */
std::string benchJson(const BenchReport &report, bool include_timing);

/** Write benchJson() to `path`; false when the file cannot open. */
bool writeBenchJson(const BenchReport &report, bool include_timing,
                    const std::string &path);

/** Conventional artifact name: BENCH_<suite>.json. */
std::string defaultOutputPath(const std::string &suite);

/** One case's comparison against the baseline. */
struct CaseDelta
{
    std::string name;
    bool comparable = false; ///< found in baseline with usable data
    bool regressed = false;
    double baselineThroughput = 0.0; ///< 0 when baseline untimed
    double currentThroughput = 0.0;
    double slowdownPct = 0.0; ///< positive = slower than baseline
    std::string note; ///< why not comparable / what regressed
};

/** Outcome of a --baseline comparison. */
struct CompareOutcome
{
    bool ok = true; ///< no case regressed and the baseline parsed
    std::string error; ///< parse/schema failure, "" otherwise
    std::vector<CaseDelta> deltas;
};

/**
 * Compare a fresh report against a saved BENCH_*.json. A timed run
 * against timed baseline cases gates on throughput: a case regresses
 * when it is more than `threshold_pct` percent slower than the
 * baseline. An untimed run (BenchReport::timed off), or untimed
 * baseline cases (saved with --no-timing, the committed form), gate
 * on exact work-metric equality instead — any drift in the
 * deterministic counters is flagged. Timed JSON carries the metrics
 * too, so an untimed run never reads a baseline's wall clock. Cases
 * missing from the baseline are noted but never fail the comparison.
 */
CompareOutcome compareToBaseline(const BenchReport &current,
                                 const std::string &baseline_json,
                                 double threshold_pct);

} // namespace bench
} // namespace supernpu

#endif // SUPERNPU_PERF_BENCH_RUNNER_HH
