/**
 * @file
 * Shared declarations of the SNS benchmark (snsbench/README.md): the
 * command line, the result record every workload fills, the served
 * model every workload predicts with, and small statistics helpers.
 */

#ifndef SNSBENCH_BENCH_HH
#define SNSBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"

namespace snsbench {

using Clock = std::chrono::steady_clock;

/** The driver's command line. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One run's outcome: the last stdout line is this record as JSON. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Name -> (value, unit), in insertion order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }
    /** Count one checked operation; a mismatch is a failed one. */
    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** Pool width the program runs at: the host's hardware threads. */
int hardwareThreads();

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/** Seconds since `start`. */
double secondsSince(Clock::time_point start);

/** Linear-interpolated quantile (q in [0, 1]) of unsorted values. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * The served model: the Table-2 Circuitformer (d_model 128, 2 heads,
 * 2 layers, d_ff 512) and its aggregation heads, from a short
 * fixed-seed training run on the smoke designs. The weights do not
 * change how much work a prediction does; the shape does. Sampling
 * uses the default SamplerOptions (what `sns-cli predict` runs) with
 * `sampler_seed`.
 */
std::shared_ptr<sns::core::SnsPredictor>
trainServedModel(uint64_t sampler_seed);

/** Bitwise equality of two design predictions. */
bool samePrediction(const sns::core::SnsPrediction &a,
                    const sns::core::SnsPrediction &b);

/** Set-ups per run, at least; setup_s is their median. */
constexpr size_t kSetupReps = 5;
/** Set-up time per run, at least: a short set-up is repeated more. */
constexpr double kSetupSeconds = 2.0;

/**
 * Run `setup` at least kSetupReps times and for at least kSetupSeconds
 * (each result replaces the previous one, which is destroyed first),
 * print the times, and return their median; `state` keeps the last
 * result.
 */
template <typename State, typename Fn>
double
timedSetup(std::unique_ptr<State> &state, Fn setup)
{
    std::vector<double> times;
    double total_s = 0.0;
    while (times.size() < kSetupReps || total_s < kSetupSeconds) {
        state.reset();
        const auto start = Clock::now();
        state = setup();
        times.push_back(secondsSince(start));
        total_s += times.back();
    }
    std::cout << "setup: median " << median(times) << " s:";
    for (const double t : times)
        std::cout << " " << t;
    std::cout << "\n";
    return median(times);
}

Report runSweepCold(const Args &args, bool int8);
Report runSweepDse(const Args &args);
Report runServeMix(const Args &args);
Report runTrain(const Args &args);

} // namespace snsbench

#endif // SNSBENCH_BENCH_HH
