/** @file Tests for the chrome://tracing timeline writer. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <unistd.h>

#include "core/system.h"
#include "sim/logging.h"
#include "sim/tracing.h"
#include "workloads/gpu_suite.h"

namespace hiss {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class TracingTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // One file per case and process: ctest runs each case in its
        // own process, possibly concurrently, and every TearDown
        // removes its file.
        path_ = ::testing::TempDir() + "hiss_trace_test."
            + ::testing::UnitTest::GetInstance()->current_test_info()->name()
            + "." + std::to_string(::getpid()) + ".json";
    }
    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(TracingTest, EmptyTraceIsValidJsonArray)
{
    { TraceWriter trace(path_); }
    const std::string content = readFile(path_);
    EXPECT_EQ(content.find('['), 0u);
    EXPECT_NE(content.find(']'), std::string::npos);
}

TEST_F(TracingTest, EventsAreCommaSeparatedRecords)
{
    {
        TraceWriter trace(path_);
        trace.complete(0, "burst-a", "burst", 1000, 500);
        trace.complete(1, "irq:iommu_drv", "irq", 2000, 300);
        EXPECT_EQ(trace.eventsWritten(), 2u);
    }
    const std::string content = readFile(path_);
    EXPECT_NE(content.find("\"name\":\"burst-a\""), std::string::npos);
    EXPECT_NE(content.find("\"tid\":1"), std::string::npos);
    // Microsecond conversion: 1000 ticks -> ts 1.
    EXPECT_NE(content.find("\"ts\":1"), std::string::npos);
    // Exactly one separating comma between the two records.
    EXPECT_NE(content.find("},\n{"), std::string::npos);
}

TEST_F(TracingTest, NamesAreJsonEscaped)
{
    {
        TraceWriter trace(path_);
        trace.complete(0, "weird\"name\\x", "burst", 0, 1);
    }
    const std::string content = readFile(path_);
    EXPECT_NE(content.find("weird\\\"name\\\\x"), std::string::npos);
}

TEST_F(TracingTest, UnopenablePathThrows)
{
    EXPECT_THROW(TraceWriter("/nonexistent-dir/trace.json"),
                 FatalError);
}

TEST_F(TracingTest, SystemEmitsBurstIrqAndSleepEvents)
{
    SystemConfig config;
    config.seed = 201;
    HeteroSystem sys(config);
    {
        TraceWriter trace(path_);
        sys.setTraceWriter(&trace);
        GpuWorkloadParams workload;
        workload.name = "t";
        workload.wavefronts = 2;
        workload.pages = 32;
        workload.main_visits = 64;
        workload.chunks_per_visit = 2;
        workload.fault_replay = usToTicks(5);
        sys.launchGpu(workload, true, false);
        sys.runUntil(msToTicks(10));
        sys.setTraceWriter(nullptr);
        EXPECT_GT(trace.eventsWritten(), 10u);
    }
    const std::string content = readFile(path_);
    EXPECT_NE(content.find("\"cat\":\"irq\""), std::string::npos);
    EXPECT_NE(content.find("\"cat\":\"kburst\""), std::string::npos);
    EXPECT_NE(content.find("irq:iommu_drv"), std::string::npos);
    EXPECT_NE(content.find("\"name\":\"cc6\""), std::string::npos);
}

} // namespace
} // namespace hiss
