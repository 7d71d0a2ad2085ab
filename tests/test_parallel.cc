/**
 * @file
 * Unit tests for the ParallelRunner thread pool and the determinism
 * contract of the parallel sweep/experiment paths: results must be
 * bit-identical to the serial computation at any thread count.
 */

#include <atomic>
#include <cstdlib>
#include <functional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "pdnspot/experiments.hh"
#include "pdnspot/figures.hh"
#include "workload/spec_cpu2006.hh"

namespace pdnspot
{
namespace
{

TEST(ParallelRunnerTest, ForEachVisitsEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        for (size_t n : {size_t(0), size_t(1), size_t(7),
                         size_t(64), size_t(1000)}) {
            std::vector<std::atomic<int>> visits(n);
            runner.forEach(n, [&](size_t i) { visits[i]++; });
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(visits[i].load(), 1)
                    << "index " << i << " with " << threads
                    << " threads";
        }
    }
}

TEST(ParallelRunnerTest, MapStoresResultsAtTheirOwnIndex)
{
    ParallelRunner runner(8);
    std::vector<double> out = runner.map<double>(
        257, [](size_t i) { return static_cast<double>(i) * 1.5; });
    ASSERT_EQ(out.size(), 257u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<double>(i) * 1.5);
}

TEST(ParallelRunnerTest, SingleThreadRunsInline)
{
    ParallelRunner runner(1);
    EXPECT_EQ(runner.threadCount(), 1u);
    std::vector<int> order;
    runner.forEach(5, [&](size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunnerTest, PropagatesExceptionsAfterDraining)
{
    ParallelRunner runner(4);
    std::atomic<size_t> ran{0};
    EXPECT_THROW(
        runner.forEach(100,
                       [&](size_t i) {
                           ran++;
                           if (i == 13)
                               throw std::runtime_error("boom");
                       }),
        std::runtime_error);
    // All indices still executed: no index is abandoned mid-job.
    EXPECT_EQ(ran.load(), 100u);
}

TEST(ParallelRunnerTest, NestedForEachFallsBackToSerial)
{
    ParallelRunner runner(4);
    std::vector<std::atomic<int>> visits(6 * 5);
    runner.forEach(6, [&](size_t outer) {
        runner.forEach(5, [&](size_t inner) {
            visits[outer * 5 + inner]++;
        });
    });
    for (auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ParallelRunnerTest, ForEachChunkedCoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        for (size_t grain : {size_t(1), size_t(3), size_t(8),
                             size_t(64), size_t(1000)}) {
            size_t n = 100;
            std::vector<std::atomic<int>> visits(n);
            runner.forEachChunked(
                n, grain, [&](size_t begin, size_t end) {
                    ASSERT_LT(begin, end);
                    ASSERT_LE(end, n);
                    ASSERT_LE(end - begin, grain);
                    for (size_t i = begin; i < end; ++i)
                        visits[i]++;
                });
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(visits[i].load(), 1)
                    << "index " << i << " grain " << grain
                    << " threads " << threads;
        }
    }
}

TEST(ParallelRunnerTest, ForEachChunkedRejectsZeroGrain)
{
    ParallelRunner runner(2);
    EXPECT_THROW(
        runner.forEachChunked(10, 0, [](size_t, size_t) {}),
        ConfigError);
}

TEST(ParallelRunnerTest, MapWithGrainMatchesSerialBitExactly)
{
    ParallelRunner serial(1);
    std::vector<double> expected = serial.map<double>(
        513, [](size_t i) { return 1.0 / (1.0 + double(i)); });
    ParallelRunner runner(8);
    for (size_t grain : {size_t(1), size_t(7), size_t(100)}) {
        std::vector<double> got = runner.map<double>(
            513, [](size_t i) { return 1.0 / (1.0 + double(i)); },
            grain);
        EXPECT_EQ(got, expected) << "grain " << grain;
    }
}

TEST(ParallelRunnerTest, SuggestedGrainIsAlwaysUsable)
{
    ParallelRunner runner(4);
    for (size_t n : {size_t(0), size_t(1), size_t(5), size_t(1000),
                     size_t(1000000)}) {
        size_t grain = runner.suggestedGrain(n);
        EXPECT_GE(grain, 1u) << n;
        if (n > 0) {
            EXPECT_LE(grain, n) << n;
        }
    }
    // Large inputs must actually chunk: claims should be far rarer
    // than indices.
    EXPECT_GT(runner.suggestedGrain(1000000), 1000u);
}

TEST(ParallelRunnerTest, ReusableAcrossJobs)
{
    ParallelRunner runner(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<size_t> sum{0};
        runner.forEach(20, [&](size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 190u);
    }
}

TEST(ParallelRunnerTest, HonorsThreadsEnvVar)
{
    ::setenv("PDNSPOT_THREADS", "3", 1);
    ParallelRunner runner;
    EXPECT_EQ(runner.threadCount(), 3u);
    ::unsetenv("PDNSPOT_THREADS");
}

TEST(ParallelRunnerTest, RejectsMalformedThreadsEnvVar)
{
    ::unsetenv("PDNSPOT_THREADS");
    unsigned fallback = ParallelRunner(0).threadCount();
    for (const char *bad : {"8cores", "banana", "-2", "0", ""}) {
        ::setenv("PDNSPOT_THREADS", bad, 1);
        EXPECT_EQ(ParallelRunner(0).threadCount(), fallback)
            << "PDNSPOT_THREADS=" << bad;
    }
    ::unsetenv("PDNSPOT_THREADS");
}

TEST(ParallelRunnerTest, ParseThreadCountPolicy)
{
    // Capture the rejection warnings instead of leaking them into
    // the test output — and assert they actually fire.
    ScopedLogCapture capture;

    // Valid values parse; the fallback is untouched, nothing warns.
    EXPECT_EQ(ParallelRunner::parseThreadCount("1", 5), 1u);
    EXPECT_EQ(ParallelRunner::parseThreadCount("12", 5), 12u);
    EXPECT_EQ(capture.count(LogLevel::Warn), 0u);

    // Non-numeric, zero, negative, fractional, hex, empty and
    // trailing-garbage values all warn and fall back.
    size_t rejected = 0;
    for (const char *bad : {"", " ", "0", "-3", "2.5", "1e3", "4 ",
                            "0x8", "eight", "+"}) {
        EXPECT_EQ(ParallelRunner::parseThreadCount(bad, 7), 7u)
            << "value \"" << bad << "\"";
        ++rejected;
        EXPECT_EQ(capture.count(LogLevel::Warn), rejected)
            << "value \"" << bad << "\" did not warn";
    }

    // Overflowing and absurd values clamp to the pool cap.
    EXPECT_EQ(ParallelRunner::parseThreadCount("9999999999", 7),
              256u);
    EXPECT_EQ(ParallelRunner::parseThreadCount(
                  "99999999999999999999999999", 7),
              256u);
}

TEST(ParallelRunnerTest, CapsAbsurdThreadsEnvVar)
{
    ScopedLogCapture capture;
    ::setenv("PDNSPOT_THREADS", "9999999999", 1);
    ParallelRunner runner;
    EXPECT_EQ(runner.threadCount(), 256u);
    ::unsetenv("PDNSPOT_THREADS");
}

TEST(ParallelRunnerTest, DefaultsToAtLeastOneThread)
{
    ParallelRunner runner;
    EXPECT_GE(runner.threadCount(), 1u);
}

/** Experiment sweeps return the same numbers at any pool size. */
class SweepDeterminismTest : public ::testing::Test
{
  protected:
    using Eval = std::function<double(PdnKind, double)>;

    /**
     * Every PDN's eval(kind, x) across xs, fanned out over the runner
     * the way the CSV figure rows fan out, at full precision.
     */
    static std::vector<double>
    sweep(const ParallelRunner &runner, std::span<const double> xs,
          const Eval &eval)
    {
        size_t nx = xs.size();
        size_t total = allPdnKinds.size() * nx;
        return runner.map<double>(
            total,
            [&](size_t t) {
                return eval(allPdnKinds[t / nx], xs[t % nx]);
            },
            runner.suggestedGrain(total));
    }

    double
    eteeAt(PdnKind kind, Power tdp, WorkloadType type, double ar,
           PackageCState cstate = PackageCState::C0) const
    {
        OperatingPointModel::Query q;
        q.tdp = tdp;
        q.type = type;
        q.ar = ar;
        q.cstate = cstate;
        return platform.pdn(kind)
            .evaluate(platform.operatingPoints().build(q))
            .etee();
    }

    Platform platform;
};

TEST_F(SweepDeterminismTest, SweepsBitIdenticalAcrossThreadCounts)
{
    const std::vector<double> ars = {0.1, 0.3, 0.56, 0.8, 1.0};
    std::vector<double> cstates(batteryLifeCStates.size());
    for (size_t i = 0; i < cstates.size(); ++i)
        cstates[i] = static_cast<double>(i);

    const std::vector<std::pair<std::span<const double>, Eval>>
        sweeps = {
        {ars,
         [&](PdnKind kind, double ar) {
             return eteeAt(kind, watts(15.0), WorkloadType::MultiThread,
                           ar);
         }},
        {evaluationTdpsW,
         [&](PdnKind kind, double tdp) {
             return eteeAt(kind, watts(tdp), WorkloadType::SingleThread,
                           0.56);
         }},
        {cstates,
         [&](PdnKind kind, double i) {
             return eteeAt(kind, watts(15.0), WorkloadType::BatteryLife,
                           0.3,
                           batteryLifeCStates[static_cast<size_t>(i)]);
         }},
        {evaluationTdpsW,
         [&](PdnKind kind, double tdp) {
             return normalizedBom(platform, kind, watts(tdp));
         }},
        {evaluationTdpsW,
         [&](PdnKind kind, double tdp) {
             return normalizedArea(platform, kind, watts(tdp));
         }},
    };

    ParallelRunner serial(1);
    for (const auto &[xs, eval] : sweeps) {
        std::vector<double> ref = sweep(serial, xs, eval);
        ASSERT_EQ(ref.size(), allPdnKinds.size() * xs.size());
        for (unsigned threads : {2u, 8u}) {
            ParallelRunner pool(threads);
            EXPECT_EQ(ref, sweep(pool, xs, eval))
                << threads << " threads";
        }
    }
}

TEST_F(SweepDeterminismTest, SuitePerfBitIdenticalAcrossThreadCounts)
{
    ParallelRunner serial(1);
    const std::vector<Workload> &suite = specCpu2006();

    std::vector<double> ref = suiteRelativePerf(
        platform, PdnKind::FlexWatts, watts(4.0), suite, serial);
    double mean_ref = suiteMeanRelativePerf(
        platform, PdnKind::FlexWatts, watts(4.0), suite, serial);

    for (unsigned threads : {2u, 8u}) {
        ParallelRunner pool(threads);
        EXPECT_EQ(ref, suiteRelativePerf(platform,
                                         PdnKind::FlexWatts,
                                         watts(4.0), suite, pool))
            << threads << " threads";
        EXPECT_EQ(mean_ref,
                  suiteMeanRelativePerf(platform, PdnKind::FlexWatts,
                                        watts(4.0), suite, pool))
            << threads << " threads";
    }
}

TEST_F(SweepDeterminismTest, CsvExportIdenticalAcrossThreadCounts)
{
    auto csv = [&](const Figure &figure, unsigned threads) {
        ParallelRunner pool(threads);
        std::ostringstream os;
        figure.print(os, platform, pool);
        return os.str();
    };

    size_t rows = 0;
    for (const Figure &figure : paperFigures()) {
        if (!std::string(figure.name).ends_with(".csv"))
            continue;
        ++rows;
        std::string ref = csv(figure, 1);
        EXPECT_EQ(ref, csv(figure, 2)) << figure.name;
        EXPECT_EQ(ref, csv(figure, 8)) << figure.name;
    }
    EXPECT_EQ(rows, 14u);
}

} // namespace
} // namespace pdnspot
