/**
 * @file
 * Shared helpers for the bench binaries.
 *
 * Every bench regenerates one of the paper's tables or figures
 * (printed before the google-benchmark timing runs) so the repository
 * can reproduce the evaluation section end to end.
 */

#ifndef PDNSPOT_BENCH_BENCH_UTIL_HH
#define PDNSPOT_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <string>

#include <benchmark/benchmark.h>

#include "common/logging.hh"
#include "pdnspot/experiments.hh"
#include "pdnspot/platform.hh"

namespace pdnspot::bench
{

/** Lazily-constructed shared platform (ETEE tables are not free). */
inline const Platform &
platform()
{
    static const Platform instance;
    return instance;
}

/** Banner naming the paper artifact a bench regenerates. */
inline void
banner(const std::string &what)
{
    std::cout << "\n=== PDNspot reproduction: " << what << " ===\n\n";
}

/** Common main: print the figure, then run the timing benchmarks. */
inline int
benchMain(int argc, char **argv, void (*print_figure)())
{
    print_figure();
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}

} // namespace pdnspot::bench

/** Common main: print the figure, then run the timing benchmarks. */
#define PDNSPOT_BENCH_MAIN(print_figure)                              \
    int main(int argc, char **argv)                                   \
    {                                                                 \
        return ::pdnspot::bench::benchMain(argc, argv,                \
                                           print_figure);             \
    }

#endif // PDNSPOT_BENCH_BENCH_UTIL_HH
