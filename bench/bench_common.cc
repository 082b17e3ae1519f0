#include "bench/bench_common.hh"

#include <cmath>
#include <cstdlib>

#include "common/log.hh"
#include "sweep/run_point.hh"

namespace getm {
namespace bench {

double
benchScale()
{
    if (const char *env = std::getenv("GETM_BENCH_SCALE"))
        return std::atof(env);
    return 1.0;
}

std::uint64_t
benchSeed()
{
    if (const char *env = std::getenv("GETM_BENCH_SEED"))
        return std::strtoull(env, nullptr, 10);
    return 7;
}

RunResult
runBench(SweepPoint point)
{
    point.maxCycles = 8'000'000'000ull;
    point.resolve(std::nullopt, /*default_sampler=*/false);
    PointResult out = runSweepPoint(point);
    if (!out.meta.verified)
        fatal("%s/%s failed verification: %s", out.meta.bench.c_str(),
              out.meta.protocol.c_str(), out.why.c_str());
    return std::move(out.run);
}

double
gmean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double value : values)
        log_sum += std::log(value);
    return values.empty() ? 0.0
                          : std::exp(log_sum /
                                     static_cast<double>(values.size()));
}

} // namespace bench
} // namespace getm
