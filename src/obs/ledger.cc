/**
 * @file
 * Run-ledger implementation and subsystem builders.
 */

#include "ledger.hh"

#include <fstream>

#include "common/logging.hh"
#include "json_writer.hh"

namespace supernpu {
namespace obs {

Value
Value::integer(std::uint64_t v)
{
    Value out;
    out._kind = Kind::Int;
    out._int = v;
    return out;
}

Value
Value::real(double v)
{
    Value out;
    out._kind = Kind::Real;
    out._real = v;
    return out;
}

Value
Value::text(std::string v)
{
    Value out;
    out._kind = Kind::Text;
    out._text = std::move(v);
    return out;
}

double
Value::number() const
{
    switch (_kind) {
      case Kind::Int:
        return (double)_int;
      case Kind::Real:
        return _real;
      case Kind::Text:
        return 0.0;
    }
    return 0.0;
}

std::string
Value::csvText() const
{
    switch (_kind) {
      case Kind::Int:
        return std::to_string(_int);
      case Kind::Real:
        return jsonNumber(_real);
      case Kind::Text: {
        std::string out = _text;
        for (char &c : out) {
            if (c == ',' || c == '\n')
                c = ';';
        }
        return out;
      }
    }
    return "";
}

RunLedger::Section &
RunLedger::sectionFor(const std::string &name)
{
    for (Section &section : _sections) {
        if (section.name == name)
            return section;
    }
    _sections.push_back(Section{name, {}});
    return _sections.back();
}

Value &
RunLedger::entryFor(const std::string &section, const std::string &key)
{
    Section &s = sectionFor(section);
    for (auto &entry : s.entries) {
        if (entry.first == key)
            return entry.second;
    }
    s.entries.emplace_back(key, Value{});
    return s.entries.back().second;
}

void
RunLedger::setInt(const std::string &section, const std::string &key,
                  std::uint64_t value)
{
    entryFor(section, key) = Value::integer(value);
}

void
RunLedger::setReal(const std::string &section, const std::string &key,
                   double value)
{
    entryFor(section, key) = Value::real(value);
}

void
RunLedger::setText(const std::string &section, const std::string &key,
                   const std::string &value)
{
    entryFor(section, key) = Value::text(value);
}

void
RunLedger::incInt(const std::string &section, const std::string &key,
                  std::uint64_t delta)
{
    Value &entry = entryFor(section, key);
    entry = Value::integer(
        (entry.kind() == Value::Kind::Int ? entry.asInt() : 0) + delta);
}

RunLedger::Table &
RunLedger::table(const std::string &name,
                 const std::vector<std::string> &columns)
{
    for (Table &table : _tables) {
        if (table.name != name)
            continue;
        SUPERNPU_ASSERT(table.columns == columns,
                        "ledger table '", name,
                        "' re-created with different columns");
        return table;
    }
    _tables.push_back(Table{name, columns, {}});
    return _tables.back();
}

void
RunLedger::addRow(const std::string &name, std::vector<Value> row)
{
    for (Table &table : _tables) {
        if (table.name != name)
            continue;
        SUPERNPU_ASSERT(row.size() == table.columns.size(),
                        "ledger table '", name, "' row width ",
                        row.size(), " != ", table.columns.size(),
                        " columns");
        table.rows.push_back(std::move(row));
        return;
    }
    panic("ledger table '", name, "' does not exist");
}

const Value *
RunLedger::find(const std::string &section,
                const std::string &key) const
{
    for (const Section &s : _sections) {
        if (s.name != section)
            continue;
        for (const auto &entry : s.entries) {
            if (entry.first == key)
                return &entry.second;
        }
    }
    return nullptr;
}

const RunLedger::Table *
RunLedger::findTable(const std::string &name) const
{
    for (const Table &table : _tables) {
        if (table.name == name)
            return &table;
    }
    return nullptr;
}

namespace {

void
writeValue(JsonWriter &json, const Value &value)
{
    switch (value.kind()) {
      case Value::Kind::Int:
        json.value(value.asInt());
        break;
      case Value::Kind::Real:
        json.value(value.asReal());
        break;
      case Value::Kind::Text:
        json.value(value.asText());
        break;
    }
}

} // namespace

std::string
RunLedger::json() const
{
    JsonWriter json;
    json.beginObject();
    json.key("schema").value(kLedgerSchema);
    json.key("sections").beginObject();
    for (const Section &section : _sections) {
        json.key(section.name).beginObject();
        for (const auto &entry : section.entries) {
            json.key(entry.first);
            writeValue(json, entry.second);
        }
        json.endObject();
    }
    json.endObject();
    json.key("tables").beginObject();
    for (const Table &table : _tables) {
        json.key(table.name).beginObject();
        json.key("columns").beginArray();
        for (const std::string &column : table.columns)
            json.value(column);
        json.endArray();
        json.key("rows").beginArray();
        for (const auto &row : table.rows) {
            json.beginArray();
            for (const Value &cell : row)
                writeValue(json, cell);
            json.endArray();
        }
        json.endArray();
        json.endObject();
    }
    json.endObject();
    json.endObject();
    return json.str() + "\n";
}

std::string
RunLedger::csv() const
{
    std::string out;
    for (const Section &section : _sections) {
        out += "# section " + section.name + "\n";
        out += "key,value\n";
        for (const auto &entry : section.entries)
            out += entry.first + "," + entry.second.csvText() + "\n";
    }
    for (const Table &table : _tables) {
        out += "# table " + table.name + "\n";
        for (std::size_t i = 0; i < table.columns.size(); ++i) {
            if (i > 0)
                out += ',';
            out += table.columns[i];
        }
        out += '\n';
        for (const auto &row : table.rows) {
            for (std::size_t i = 0; i < row.size(); ++i) {
                if (i > 0)
                    out += ',';
                out += row[i].csvText();
            }
            out += '\n';
        }
    }
    return out;
}

bool
RunLedger::write(const std::string &path) const
{
    std::ofstream file(path, std::ios::binary);
    if (!file)
        return false;
    const bool as_csv = path.size() >= 4 &&
                        path.compare(path.size() - 4, 4, ".csv") == 0;
    file << (as_csv ? csv() : json());
    return (bool)file;
}

// --- subsystem builders ---------------------------------------------

void
addSimResult(RunLedger &ledger, const npusim::SimResult &result)
{
    ledger.setText("sim", "network", result.networkName);
    ledger.setText("sim", "config", result.configName);
    ledger.setInt("sim", "batch", (std::uint64_t)result.batch);
    ledger.setReal("sim", "frequencyGhz", result.frequencyGhz);
    ledger.setInt("sim", "totalCycles", result.totalCycles);
    ledger.setInt("sim", "computeCycles", result.computeCycles);
    ledger.setInt("sim", "prepCycles", result.prepCycles);
    ledger.setInt("sim", "memoryStallCycles",
                  result.memoryStallCycles);
    ledger.setInt("sim", "prepWeightLoad", result.prep.weightLoad);
    ledger.setInt("sim", "prepIfmapFill", result.prep.ifmapFill);
    ledger.setInt("sim", "prepIfmapRewind", result.prep.ifmapRewind);
    ledger.setInt("sim", "prepPsumMove", result.prep.psumMove);
    ledger.setInt("sim", "prepOutputFlush", result.prep.outputFlush);
    ledger.setInt("sim", "prepOutputHandoff",
                  result.prep.outputHandoff);
    ledger.setInt("sim", "macOps", result.macOps);
    ledger.setInt("sim", "dramBytes", result.dramBytes);
    ledger.setInt("sim", "dramWeightBytes", result.dramWeightBytes);
    ledger.setInt("sim", "dramIfmapBytes", result.dramIfmapBytes);
    ledger.setInt("sim", "dramOutputBytes", result.dramOutputBytes);
    ledger.setInt("sim", "faultEventsInjected",
                  result.faultEventsInjected);
    ledger.setInt("sim", "faultRecomputeCycles",
                  result.faultRecomputeCycles);
    ledger.setReal("sim", "seconds", result.seconds());

    RunLedger::Table &layers = ledger.table(
        "layers",
        {"layer", "computeCycles", "prepCycles", "stallCycles",
         "weightLoad", "ifmapFill", "ifmapRewind", "psumMove",
         "outputFlush", "outputHandoff", "macOps", "weightMappings",
         "dramBytes", "dramWeightBytes", "dramIfmapBytes",
         "dramOutputBytes"});
    (void)layers;
    for (const npusim::LayerResult &layer : result.layers()) {
        ledger.addRow(
            "layers",
            {Value::text(layer.layerName),
             Value::integer(layer.computeCycles),
             Value::integer(layer.prepCycles),
             Value::integer(layer.memoryStallCycles),
             Value::integer(layer.prep.weightLoad),
             Value::integer(layer.prep.ifmapFill),
             Value::integer(layer.prep.ifmapRewind),
             Value::integer(layer.prep.psumMove),
             Value::integer(layer.prep.outputFlush),
             Value::integer(layer.prep.outputHandoff),
             Value::integer(layer.macOps),
             Value::integer(layer.weightMappings),
             Value::integer(layer.dramBytes),
             Value::integer(layer.dramWeightBytes),
             Value::integer(layer.dramIfmapBytes),
             Value::integer(layer.dramOutputBytes)});
    }
}

void
addServingReport(RunLedger &ledger,
                 const serving::ServingReport &report)
{
    ledger.setText("serving", "network", report.network);
    ledger.setText("serving", "config", report.configName);
    ledger.setInt("serving", "chips", (std::uint64_t)report.chips);
    ledger.setText("serving", "arrival", report.arrival);
    ledger.setText("serving", "policy", report.policy);
    ledger.setText("serving", "dispatch", report.dispatch);
    ledger.setInt("serving", "maxBatch",
                  (std::uint64_t)report.maxBatch);
    if (report.pipelineStages > 1) {
        ledger.setInt("serving", "pipelineStages",
                      (std::uint64_t)report.pipelineStages);
        ledger.setInt("serving", "pipelineGroups",
                      (std::uint64_t)report.pipelineGroups);
    }
    if (report.dataParallelReplicas > 1) {
        ledger.setInt("serving", "dataParallelReplicas",
                      (std::uint64_t)report.dataParallelReplicas);
        ledger.setInt("serving", "replicaGroups",
                      (std::uint64_t)report.replicaGroups);
    }
    ledger.setInt("serving", "generated", report.generated);
    ledger.setInt("serving", "completed", report.completed);
    ledger.setReal("serving", "makespanSec", report.makespanSec);
    ledger.setReal("serving", "offeredRps", report.offeredRps);
    ledger.setReal("serving", "throughputRps", report.throughputRps);
    ledger.setReal("serving", "utilization", report.utilization);
    ledger.setReal("serving", "meanQueueDepth", report.meanQueueDepth);
    ledger.setInt("serving", "batchesLaunched",
                  report.batchesLaunched);
    ledger.setReal("serving", "meanBatch", report.meanBatch);
    ledger.setInt("serving", "maxBatchLaunched",
                  (std::uint64_t)report.maxBatchLaunched);
    ledger.setReal("serving", "latencyMeanSec", report.latencyMean);
    ledger.setReal("serving", "latencyP50Sec", report.latencyP50);
    ledger.setReal("serving", "latencyP95Sec", report.latencyP95);
    ledger.setReal("serving", "latencyP99Sec", report.latencyP99);
    ledger.setReal("serving", "latencyP999Sec", report.latencyP999);
    ledger.setReal("serving", "latencyMaxSec", report.latencyMax);
    ledger.setInt("serving", "resilienceActive",
                  report.resilienceActive ? 1 : 0);
    if (report.resilienceActive) {
        ledger.setText("serving", "recovery", report.recovery);
        ledger.setInt("serving", "faultsScheduled",
                      report.faultsScheduled);
        ledger.setInt("serving", "faultsInjected",
                      report.faultsInjected);
        ledger.setInt("serving", "batchesKilled",
                      report.batchesKilled);
        ledger.setInt("serving", "requestsKilled",
                      report.requestsKilled);
        ledger.setInt("serving", "retriesTotal", report.retriesTotal);
        ledger.setInt("serving", "retryGiveUps", report.retryGiveUps);
        ledger.setInt("serving", "restarts", report.restarts);
        ledger.setInt("serving", "redispatches", report.redispatches);
        ledger.setInt("serving", "glitchesAbsorbed",
                      report.glitchesAbsorbed);
        ledger.setInt("serving", "failedRequests",
                      report.failedRequests);
        ledger.setReal("serving", "availability", report.availability);
        ledger.setReal("serving", "goodputRps", report.goodputRps);
    }

    ledger.table("chips", {"chip", "batches", "busySec"});
    const std::size_t chips = report.perChipBatches.size();
    for (std::size_t chip = 0; chip < chips; ++chip) {
        const double busy = chip < report.perChipBusySec.size()
                                ? report.perChipBusySec[chip]
                                : 0.0;
        ledger.addRow("chips",
                      {Value::integer((std::uint64_t)chip),
                       Value::integer(report.perChipBatches[chip]),
                       Value::real(busy)});
    }
}

void
addPipelineResult(RunLedger &ledger,
                  const partition::PipelineResult &result)
{
    const partition::PartitionPlan &plan = result.plan;
    ledger.setText("pipeline", "network", plan.networkName);
    ledger.setText("pipeline", "config", plan.configName);
    ledger.setInt("pipeline", "stages",
                  (std::uint64_t)plan.stageCount());
    ledger.setInt("pipeline", "batch", (std::uint64_t)plan.batch);
    ledger.setInt("pipeline", "batches",
                  (std::uint64_t)result.batches);
    ledger.setReal("pipeline", "frequencyGhz", plan.frequencyGhz);
    ledger.setReal("pipeline", "linkBandwidthGBps",
                   plan.link.bandwidthGBps);
    ledger.setInt("pipeline", "linkLatencyCycles",
                  plan.link.latencyCycles);
    ledger.setInt("pipeline", "bottleneckStage",
                  (std::uint64_t)plan.bottleneckStage);
    ledger.setInt("pipeline", "bottleneckCycles",
                  plan.bottleneckCycles);
    ledger.setInt("pipeline", "fillCycles", plan.fillCycles);
    ledger.setInt("pipeline", "makespanCycles",
                  result.makespanCycles);
    ledger.setInt("pipeline", "totalStageCycles",
                  result.totalStageCycles);
    ledger.setInt("pipeline", "totalLinkCycles",
                  result.totalLinkCycles);
    ledger.setInt("pipeline", "macOpsPerBatch",
                  result.macOpsPerBatch);
    ledger.setReal("pipeline", "fillLatencySec",
                   plan.fillLatencySec());
    ledger.setReal("pipeline", "intervalSec", plan.intervalSec());
    ledger.setReal("pipeline", "makespanSec", result.makespanSec());
    ledger.setReal("pipeline", "steadyInferencesPerSec",
                   result.steadyInferencesPerSec());

    (void)ledger.table(
        "stages",
        {"stage", "firstLayer", "lastLayer", "layers", "stageCycles",
         "linkBytes", "linkCycles", "occupancyCycles",
         "utilization"});
    for (int s = 0; s < plan.stageCount(); ++s) {
        const partition::PipelineStage &stage = plan.stages[s];
        ledger.addRow(
            "stages",
            {Value::integer((std::uint64_t)s),
             Value::integer((std::uint64_t)stage.firstLayer),
             Value::integer((std::uint64_t)stage.lastLayer),
             Value::integer((std::uint64_t)stage.layerCount()),
             Value::integer(stage.stageCycles),
             Value::integer(stage.linkBytes),
             Value::integer(stage.linkCycles),
             Value::integer(stage.occupancyCycles()),
             Value::real(plan.stageUtilization(s))});
    }
}

void
addShardPlan(RunLedger &ledger, const sharding::ShardPlan &plan)
{
    ledger.setText("sharding", "network", plan.networkName);
    ledger.setText("sharding", "config", plan.configName);
    ledger.setInt("sharding", "dataParallel",
                  (std::uint64_t)plan.dataParallel);
    ledger.setInt("sharding", "tensorShards",
                  (std::uint64_t)plan.tensorShards);
    ledger.setInt("sharding", "pipelineStages",
                  (std::uint64_t)plan.pipelineStages);
    ledger.setInt("sharding", "chips", (std::uint64_t)plan.chips());
    ledger.setInt("sharding", "batch", (std::uint64_t)plan.batch);
    ledger.setInt("sharding", "replicaShare",
                  (std::uint64_t)plan.replicaShare);
    ledger.setReal("sharding", "frequencyGhz", plan.frequencyGhz);
    ledger.setReal("sharding", "linkBandwidthGBps",
                   plan.link.bandwidthGBps);
    ledger.setInt("sharding", "linkLatencyCycles",
                  plan.link.latencyCycles);
    ledger.setInt("sharding", "tensorCollectiveCycles",
                  plan.tensorCollectiveCycles);
    ledger.setInt("sharding", "tensorCollectiveBytes",
                  plan.tensorCollectiveBytes);
    ledger.setInt("sharding", "gatherBytes", plan.gatherBytes);
    ledger.setInt("sharding", "gatherCycles", plan.gatherCycles);
    ledger.setInt("sharding", "bottleneckCycles",
                  plan.bottleneckCycles);
    ledger.setInt("sharding", "fillCycles", plan.fillCycles);
    ledger.setInt("sharding", "intervalCycles", plan.intervalCycles);
    ledger.setInt("sharding", "latencyCycles", plan.latencyCycles);
    ledger.setInt("sharding", "soloCycles", plan.soloCycles);
    ledger.setInt("sharding", "macOpsPerBatch", plan.macOpsPerBatch);
    ledger.setReal("sharding", "intervalSec", plan.intervalSec());
    ledger.setReal("sharding", "latencySec", plan.latencySec());
    ledger.setReal("sharding", "throughput", plan.throughput());
    ledger.setReal("sharding", "speedup", plan.speedup());

    (void)ledger.table(
        "shardStages",
        {"stage", "firstLayer", "lastLayer", "stageCycles",
         "linkBytes", "linkCycles", "collectiveCycles",
         "occupancyCycles"});
    for (int s = 0; s < plan.pipelineStages; ++s) {
        const partition::PipelineStage &stage =
            plan.pipeline.stages[s];
        ledger.addRow(
            "shardStages",
            {Value::integer((std::uint64_t)s),
             Value::integer((std::uint64_t)stage.firstLayer),
             Value::integer((std::uint64_t)stage.lastLayer),
             Value::integer(stage.stageCycles),
             Value::integer(stage.linkBytes),
             Value::integer(stage.linkCycles),
             Value::integer(plan.stageCollectiveCycles[s]),
             Value::integer(plan.stageOccupancyCycles[s])});
    }
}

void
addFaultSchedule(RunLedger &ledger,
                 const reliability::FaultSchedule &schedule)
{
    const reliability::FaultScheduleConfig &config = schedule.config();
    ledger.setInt("faults", "events",
                  (std::uint64_t)schedule.size());
    ledger.setInt("faults", "chips", (std::uint64_t)config.chips);
    ledger.setReal("faults", "horizonSec", config.horizonSec);
    ledger.setInt("faults", "seed", config.seed);
    ledger.setText("faults", "arrival",
                   reliability::faultArrivalName(config.arrival));
    using reliability::FaultKind;
    ledger.setInt("faults", "pulseDrops",
                  schedule.count(FaultKind::PulseDrop));
    ledger.setInt("faults", "fluxTraps",
                  schedule.count(FaultKind::FluxTrap));
    ledger.setInt("faults", "clockSkews",
                  schedule.count(FaultKind::ClockSkew));
    ledger.setInt("faults", "linkGlitches",
                  schedule.count(FaultKind::LinkGlitch));
}

void
addSimCacheStats(RunLedger &ledger,
                 const npusim::SimCacheStats &stats)
{
    ledger.setInt("simCache", "hits", stats.hits);
    ledger.setInt("simCache", "misses", stats.misses);
    ledger.setInt("simCache", "evictions", stats.evictions);
}

void
addLayerTimingCacheStats(RunLedger &ledger,
                         const partition::LayerTimingCacheStats &stats)
{
    ledger.setInt("layerTimingCache", "hits", stats.hits);
    ledger.setInt("layerTimingCache", "misses", stats.misses);
}

void
addPoolStats(RunLedger &ledger, const ThreadPool::Stats &stats)
{
    ledger.setInt("threadPool", "jobs", (std::uint64_t)stats.jobs);
    ledger.setInt("threadPool", "loops", stats.loops);
    ledger.setInt("threadPool", "tasks", stats.tasks);
    ledger.setInt("threadPool", "maxLoopTasks", stats.maxLoopTasks);
}

void
addPerfReport(RunLedger &ledger, const perf::Report &report)
{
    // Counters land as a flat "perf" section; phase timings get a
    // table (paths are hierarchical, a section would flatten them
    // into unreadable keys). Nanoseconds are wall-clock, so a ledger
    // carrying this section is only byte-stable if the caller strips
    // or ignores it in determinism comparisons — the CLI emits it
    // only under --profile for exactly that reason.
    for (const perf::CounterStat &counter : report.counters)
        ledger.setInt("perf", counter.name, counter.value);

    (void)ledger.table("perfPhases", {"path", "count", "ns"});
    for (const perf::PhaseStat &phase : report.phases) {
        ledger.addRow("perfPhases",
                      {Value::text(phase.path),
                       Value::integer(phase.count),
                       Value::integer(phase.ns)});
    }
}

} // namespace obs
} // namespace supernpu
