/**
 * @file
 * The run ledger: a structured, machine-checkable record of what one
 * simulation run did.
 *
 * Three layers of derived accounting stack up in this repository —
 * cycles (npusim) -> busy time (serving) -> availability/goodput
 * (reliability) — and each layer can silently drift from the one
 * below it. The ledger is the fix, borrowed from SCALE-Sim-style
 * cycle simulators that emit per-layer CSV records from the inner
 * loop: every run collects its named counters and per-phase spans
 * into one RunLedger, the audit module (obs/audit.hh) asserts
 * conservation invariants against it, and the whole thing exports as
 * JSON or CSV for dashboards, CI diffing, and postmortems.
 *
 * Shape: a ledger is an ordered set of *sections* (flat key/value
 * groups: "sim", "serving", "simCache", ...) plus an ordered set of
 * *tables* (named column sets with rows: per-layer spans, per-chip
 * counters, sweep grids). Insertion order is preserved everywhere
 * and all number formatting is deterministic, so two identical runs
 * produce byte-identical ledger files — the property the CI ledger
 * job diffs for.
 *
 * Builders at the bottom translate each subsystem's result record
 * (SimResult, ServingReport, FaultSchedule, SimCacheStats,
 * ThreadPool::Stats) into ledger sections; the subsystems themselves
 * never depend on obs.
 */

#ifndef SUPERNPU_OBS_LEDGER_HH
#define SUPERNPU_OBS_LEDGER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "npusim/result.hh"
#include "perf/profile.hh"
#include "npusim/sim_cache.hh"
#include "partition/pipeline_sim.hh"
#include "reliability/fault_model.hh"
#include "serving/metrics.hh"
#include "sharding/planner.hh"

namespace supernpu {
namespace obs {

/** One ledger cell: an integer count, a real measure, or a label. */
class Value
{
  public:
    enum class Kind
    {
        Int,
        Real,
        Text,
    };

    Value() = default;
    static Value integer(std::uint64_t v);
    static Value real(double v);
    static Value text(std::string v);

    Kind kind() const { return _kind; }
    std::uint64_t asInt() const { return _int; }
    double asReal() const { return _real; }
    const std::string &asText() const { return _text; }

    /** Numeric view: Int widened to double; Text is 0. */
    double number() const;

    /** Rendered for CSV cells (commas in text become ';'). */
    std::string csvText() const;

  private:
    Kind _kind = Kind::Int;
    std::uint64_t _int = 0;
    double _real = 0.0;
    std::string _text;
};

/** Ledger schema identifier embedded in every JSON export. */
constexpr const char *kLedgerSchema = "supernpu-ledger-v1";

/** Ordered sections of counters plus ordered tables of rows. */
class RunLedger
{
  public:
    /** A named column set with rows (per-layer, per-chip, ...). */
    struct Table
    {
        std::string name;
        std::vector<std::string> columns;
        std::vector<std::vector<Value>> rows;
    };

    // --- counters ---------------------------------------------------
    void setInt(const std::string &section, const std::string &key,
                std::uint64_t value);
    void setReal(const std::string &section, const std::string &key,
                 double value);
    void setText(const std::string &section, const std::string &key,
                 const std::string &value);
    /** Add to an integer counter, creating it at `delta`. */
    void incInt(const std::string &section, const std::string &key,
                std::uint64_t delta);

    // --- tables -----------------------------------------------------
    /**
     * Create-or-get a table. Columns are fixed at creation; a
     * create-or-get with different columns panics.
     */
    Table &table(const std::string &name,
                 const std::vector<std::string> &columns);
    /** Append one row; the width must match the table's columns. */
    void addRow(const std::string &name, std::vector<Value> row);

    // --- lookup (audits and tests) ----------------------------------
    /** Null when the section or key does not exist. */
    const Value *find(const std::string &section,
                      const std::string &key) const;
    /** Null when the table does not exist. */
    const Table *findTable(const std::string &name) const;

    // --- export -----------------------------------------------------
    /** The whole ledger as one deterministic JSON document. */
    std::string json() const;
    /**
     * CSV rendering: a `# section <name>` block of key,value lines
     * per section, then a `# table <name>` block with a header row
     * per table. One file, deterministic bytes.
     */
    std::string csv() const;
    /**
     * Write to `path` — CSV when the path ends in ".csv", JSON
     * otherwise. Returns false when the file cannot be written.
     */
    bool write(const std::string &path) const;

  private:
    struct Section
    {
        std::string name;
        std::vector<std::pair<std::string, Value>> entries;
    };

    Section &sectionFor(const std::string &name);
    Value &entryFor(const std::string &section, const std::string &key);

    std::vector<Section> _sections;
    std::vector<Table> _tables;
};

// --- subsystem builders ---------------------------------------------

/**
 * Record a cycle-level simulation: a "sim" section of network totals
 * (cycles, prep buckets, DRAM breakdown, MACs) and a "layers" table
 * with one row per layer.
 */
void addSimResult(RunLedger &ledger, const npusim::SimResult &result);

/**
 * Record a serving run: a "serving" section (volume, rates, latency
 * tail, resilience counters) and a "chips" table of per-chip batch
 * and busy-time spans.
 */
void addServingReport(RunLedger &ledger,
                      const serving::ServingReport &report);

/**
 * Record a pipeline-parallel run: a "pipeline" section (stage
 * count, bottleneck, fill/steady-state timing, link parameters) and
 * a "stages" table with one row per pipeline stage. A K=1 plan's
 * stage simulation is the single-chip SimResult itself, so pairing
 * this with addSimResult(stage.sim) reproduces the single-chip
 * ledger byte for byte.
 */
void addPipelineResult(RunLedger &ledger,
                       const partition::PipelineResult &result);

/**
 * Record a hybrid DP×TP×PP placement: a "sharding" section (degrees,
 * collective cycle/byte totals, interval/latency/speedup) and a
 * "shardStages" table with one row per pipeline stage carrying the
 * TP all-reduce overlay. A degree-1 plan's stage simulation is the
 * single-chip SimResult itself, so pairing this with
 * addSimResult(*plan.pipeline.stages[0].sim) reproduces the
 * single-chip ledger byte for byte.
 */
void addShardPlan(RunLedger &ledger, const sharding::ShardPlan &plan);

/** Record a fault schedule summary under a "faults" section. */
void addFaultSchedule(RunLedger &ledger,
                      const reliability::FaultSchedule &schedule);

/** Record memo-cache efficacy under a "simCache" section. */
void addSimCacheStats(RunLedger &ledger,
                      const npusim::SimCacheStats &stats);

/**
 * Record partition memo counters under a "layerTimingCache" section.
 * No such memo exists and no command writes the section; this is kept
 * only for perfbench/, and the benchmark change that drops that call
 * removes it.
 */
void addLayerTimingCacheStats(
    RunLedger &ledger, const partition::LayerTimingCacheStats &stats);

/** Record sweep parallelism under a "threadPool" section. */
void addPoolStats(RunLedger &ledger, const ThreadPool::Stats &stats);

/**
 * Record a profiler snapshot: a "perf" section of event counters and
 * a "perfPhases" table of (path, count, ns) rows. Phase nanoseconds
 * are wall-clock — exclude this section from byte-stability checks.
 */
void addPerfReport(RunLedger &ledger, const perf::Report &report);

} // namespace obs
} // namespace supernpu

#endif // SUPERNPU_OBS_LEDGER_HH
