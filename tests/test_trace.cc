/**
 * @file
 * Tests for the TraceRecorder CSV export: header shape, one line per
 * mapping event, and agreement between the per-event cycle columns
 * and the aggregate SimResult counters (for the buckets the trace
 * covers — layer-end flushes and hand-offs are aggregate-only and
 * deliberately absent from the trace).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dnn/parser.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/sim.hh"
#include "npusim/trace.hh"

namespace supernpu {
namespace npusim {
namespace {

/** Split CSV text into non-empty lines. */
std::vector<std::string>
csvLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

/** Split one CSV line into fields. */
std::vector<std::string>
csvFields(const std::string &line)
{
    std::vector<std::string> fields;
    std::istringstream in(line);
    std::string field;
    while (std::getline(in, field, ','))
        fields.push_back(field);
    return fields;
}

class TraceFixture : public ::testing::Test
{
  protected:
    TraceFixture()
        : net(dnn::parseNetwork("network TraceTest\n"
                                "conv   c1    3 24 24 3 1 1\n"
                                "conv   c2   24 24 24 3 1 1\n"
                                "dwconv dw3  24 24  - 3 1 1\n"
                                "fc     fc1 13824 - 10 - - -\n")),
          estimate(estimator::NpuEstimator(lib).estimate(
              estimator::NpuConfig::superNpu()))
    {
    }

    sfq::DeviceConfig dev;
    sfq::CellLibrary lib{dev};
    dnn::Network net;
    estimator::NpuEstimate estimate;
};

TEST_F(TraceFixture, CsvHasHeaderAndOneLinePerEvent)
{
    NpuSimulator sim(estimate);
    TraceRecorder trace;
    sim.setTrace(&trace);
    const SimResult result = sim.run(net, 2);

    ASSERT_FALSE(trace.events().empty());
    const auto lines = csvLines(trace.csv());
    ASSERT_EQ(lines.size(), trace.events().size() + 1);
    EXPECT_EQ(lines.front(),
              "layer,col_fold,row_fold,weight_load,ifmap_fill,"
              "ifmap_rewind,psum_move,compute,stall,macs");

    // Every data line has exactly the header's field count, and its
    // layer name is one of the network's.
    const std::size_t columns = csvFields(lines.front()).size();
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const auto fields = csvFields(lines[i]);
        ASSERT_EQ(fields.size(), columns) << lines[i];
        bool known = false;
        for (const auto &layer : net.layers)
            known |= fields[0] == layer.name;
        EXPECT_TRUE(known) << fields[0];
    }
    // One mapping event per weight mapping the result accounted.
    std::uint64_t mappings = 0;
    for (const auto &layer : result.layers())
        mappings += layer.weightMappings;
    EXPECT_EQ(trace.events().size(), mappings);
}

TEST_F(TraceFixture, EventTotalsMatchSimResult)
{
    NpuSimulator sim(estimate);
    TraceRecorder trace;
    sim.setTrace(&trace);
    const SimResult result = sim.run(net, 3);

    std::uint64_t weight_load = 0, ifmap_fill = 0, ifmap_rewind = 0,
                  psum_move = 0, compute = 0, stall = 0, macs = 0;
    for (const auto &event : trace.events()) {
        weight_load += event.weightLoadCycles;
        ifmap_fill += event.ifmapFillCycles;
        ifmap_rewind += event.ifmapRewindCycles;
        psum_move += event.psumMoveCycles;
        compute += event.computeCycles;
        stall += event.stallCycles;
        macs += event.macOps;
    }
    EXPECT_EQ(weight_load, result.prep.weightLoad);
    EXPECT_EQ(ifmap_fill, result.prep.ifmapFill);
    EXPECT_EQ(ifmap_rewind, result.prep.ifmapRewind);
    EXPECT_EQ(psum_move, result.prep.psumMove);
    EXPECT_EQ(compute, result.computeCycles);
    EXPECT_EQ(stall, result.memoryStallCycles);
    EXPECT_EQ(macs, result.macOps);

    // What the trace does NOT carry: flush and hand-off cycles, which
    // are charged at layer end, not per mapping.
    std::uint64_t traced_prep =
        weight_load + ifmap_fill + ifmap_rewind + psum_move;
    EXPECT_EQ(traced_prep + result.prep.outputFlush +
                  result.prep.outputHandoff,
              result.prepCycles);
}

TEST_F(TraceFixture, ClearDropsEventsAndDetachStopsRecording)
{
    NpuSimulator sim(estimate);
    TraceRecorder trace;
    sim.setTrace(&trace);
    (void)sim.run(net, 1);
    ASSERT_FALSE(trace.events().empty());

    trace.clear();
    EXPECT_TRUE(trace.events().empty());
    EXPECT_EQ(csvLines(trace.csv()).size(), 1u); // header only

    sim.setTrace(nullptr);
    (void)sim.run(net, 1);
    EXPECT_TRUE(trace.events().empty());
}

TEST_F(TraceFixture, RepeatedRunsAppendDeterministically)
{
    NpuSimulator sim(estimate);
    TraceRecorder first;
    sim.setTrace(&first);
    (void)sim.run(net, 2);
    const std::string once = first.csv();

    TraceRecorder second;
    sim.setTrace(&second);
    (void)sim.run(net, 2);
    EXPECT_EQ(once, second.csv());

    // Without clear(), a second run appends after the first.
    sim.setTrace(&first);
    (void)sim.run(net, 2);
    EXPECT_EQ(first.events().size(), 2 * second.events().size());
}

} // namespace
} // namespace npusim
} // namespace supernpu
