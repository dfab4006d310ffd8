/**
 * @file
 * snsbench — the SNS benchmark driver (snsbench/README.md).
 *
 *   snsbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload: its inputs come from --seed, its measured phase
 * lasts about --seconds, and every prediction, reply and trained weight
 * it produces is checked bitwise against a 1-thread reference. The
 * last stdout line is one JSON object: correct, attempted, failed, and
 * the end-to-end metrics (--trace 0) or the per-layer metrics of the
 * traced run (--trace 1). Exits non-zero without that line when the
 * arguments are bad or the workload throws.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hh"
#include "par/thread_pool.hh"

namespace {

using namespace snsbench;

/** The end-to-end metrics every workload reports (--trace 0). */
const char *const kEndToEnd[][2] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};

/**
 * The per-layer metrics of the traced run (--trace 1), as in
 * BENCHMARK.json. A workload that does not run a layer reports 0 for
 * it: the layer did no work in that workload.
 */
const char *const kPerLayer[][2] = {
    {"sampler.sample_ms", "ms"},
    {"sampler.paths_per_design", "count"},
    {"sampler.tokens_per_path", "count"},
    {"core.forward_ms", "ms"},
    {"core.unique_path_frac", "ratio"},
    {"core.reduce_heads_ms", "ms"},
    {"perf.probe_ms", "ms"},
    {"perf.hit_rate", "ratio"},
    {"perf.useful_forward_frac", "ratio"},
    {"perf.useful_forward_frac_1t", "ratio"},
    {"plan.batch_tokens", "count"},
    {"plan.run_us", "us"},
    {"plan.run_us_int8", "us"},
    {"tensor.gemm_gflops.qkv", "GFLOP/s"},
    {"tensor.gemm_gflops.ffn_up", "GFLOP/s"},
    {"tensor.gemm_gflops.ffn_down", "GFLOP/s"},
    {"tensor.qgemm_gops.qkv", "GOP/s"},
    {"tensor.qgemm_gops.ffn_up", "GOP/s"},
    {"tensor.qgemm_gops.ffn_down", "GOP/s"},
    {"par.scaling", "ratio"},
    {"netlist.parse_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.server_p50_us", "us"},
    {"serve.rejected", "count"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.predict_p99_ms", "ms"},
    {"serve.max_rate_under_slo", "1/s"},
    {"serve.samples_per_rate", "count"},
    {"serve.generator_late_ms", "ms"},
    {"cluster.hop_us", "us"},
    {"cluster.worker_share_max", "ratio"},
    {"router.retries_total", "count"},
    {"session.reuse_rate", "ratio"},
    {"session.update_p50_ms", "ms"},
    {"session.update_p99_ms", "ms"},
    {"train.epoch_ms", "ms"},
    {"dist.allreduce_share", "ratio"},
    {"dist.bytes_per_epoch", "bytes"},
    {"trace.overhead_frac", "ratio"},
};

int
usage(const std::string &message)
{
    std::cerr << "snsbench: " << message
              << "\nusage: snsbench --workload "
                 "sweep_cold|sweep_cold_int8|sweep_dse|serve_mix|train "
                 "--seed N --seconds S --trace 0|1\n";
    return 2;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/** Emit `report` restricted to `names` (each must be present). */
template <size_t N>
bool
printJson(const Report &report, const char *const (&names)[N][2])
{
    std::map<std::string, std::pair<double, std::string>> by_name(
        report.metrics.begin(), report.metrics.end());
    std::string metrics;
    for (const auto &entry : names) {
        const auto it = by_name.find(entry[0]);
        if (it == by_name.end()) {
            std::cerr << "snsbench: workload did not report "
                      << entry[0] << "\n";
            return false;
        }
        if (!metrics.empty())
            metrics += ", ";
        metrics += std::string("\"") + entry[0] + "\": {\"value\": " +
                   jsonNumber(it->second.first) + ", \"unit\": \"" +
                   entry[1] + "\"}";
    }
    std::cout << "{\"correct\": "
              << (report.failed == 0 && report.attempted > 0 ? "true"
                                                             : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (!(args.seconds > 0.0))
                return usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else {
            return usage("unknown flag " + flag);
        }
        if (end != nullptr && *end != '\0')
            return usage("bad number for " + flag + ": " + value);
    }
    if (!have_workload)
        return usage("--workload is required");

    // The program runs at the host's width; the reference passes
    // narrow it to one thread per call (PredictOptions::threads).
    sns::par::setThreads(hardwareThreads());

    Report report;
    try {
        if (args.workload == "sweep_cold")
            report = runSweepCold(args, /*int8=*/false);
        else if (args.workload == "sweep_cold_int8")
            report = runSweepCold(args, /*int8=*/true);
        else if (args.workload == "sweep_dse")
            report = runSweepDse(args);
        else if (args.workload == "serve_mix")
            report = runServeMix(args);
        else if (args.workload == "train")
            report = runTrain(args);
        else
            return usage("unknown workload " + args.workload);
    } catch (const std::exception &e) {
        std::cerr << "snsbench: " << args.workload << " failed: "
                  << e.what() << "\n";
        return 1;
    }

    if (args.trace) {
        std::map<std::string, bool> present;
        for (const auto &metric : report.metrics)
            present[metric.first] = true;
        for (const auto &entry : kPerLayer) {
            if (!present.count(entry[0]))
                report.add(entry[0], 0.0, entry[1]);
        }
        return printJson(report, kPerLayer) ? 0 : 1;
    }
    return printJson(report, kEndToEnd) ? 0 : 1;
}
