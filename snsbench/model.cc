#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "bench.hh"
#include "designs/designs.hh"
#include "nn/optim.hh"
#include "sampler/path_sampler.hh"
#include "synth/synthesizer.hh"

namespace snsbench {

using namespace sns;

int
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(values.size() - 1, lo + 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

bool
samePrediction(const core::SnsPrediction &a, const core::SnsPrediction &b)
{
    return a.timing_ps == b.timing_ps && a.area_um2 == b.area_um2 &&
           a.power_mw == b.power_mw &&
           a.paths_sampled == b.paths_sampled &&
           a.critical_path == b.critical_path;
}

std::shared_ptr<core::SnsPredictor>
trainServedModel(uint64_t sampler_seed)
{
    constexpr uint64_t kModelSeed = 0x5e5b;
    const synth::Synthesizer oracle{synth::SynthesisOptions{}};

    // Path-level training set: a few paths per smoke design, labelled
    // by the synthesis oracle.
    std::vector<graphir::Graph> graphs;
    for (const auto &spec : designs::DesignLibrary::smokeSet())
        graphs.push_back(spec.build());
    sampler::SamplerOptions train_sampling;
    train_sampling.max_paths_per_source = 2;
    train_sampling.max_total_paths = 24;
    train_sampling.seed = kModelSeed;
    std::vector<std::vector<graphir::TokenId>> token_paths;
    for (const auto &graph : graphs) {
        for (auto &path : sampler::PathSampler(train_sampling).sample(graph))
            token_paths.push_back(std::move(path.tokens));
    }
    const auto labels = oracle.runPaths(token_paths);
    std::vector<core::PathRecord> records;
    for (size_t i = 0; i < token_paths.size(); ++i) {
        records.push_back({token_paths[i], labels[i].timing_ps,
                           labels[i].area_um2, labels[i].power_mw});
    }

    // Table-2 Circuitformer, one epoch.
    core::CircuitformerConfig config;
    config.seed = kModelSeed;
    auto circuitformer = std::make_shared<core::Circuitformer>(config);
    circuitformer->fitNormalization(records);
    nn::Adam adam(circuitformer->parameters(), 1e-3);
    Rng rng(kModelSeed);
    circuitformer->trainEpoch(records, adam, rng, 64);

    // Aggregation heads fitted on design-level synthesis truth.
    sampler::SamplerOptions serve_sampling;
    serve_sampling.seed = sampler_seed;
    std::vector<core::AggregateSummary> summaries;
    std::vector<double> timing, area, power;
    for (size_t d = 0; d < 4; ++d) {
        const auto &graph = graphs[d];
        sampler::SamplerOptions head_sampling = train_sampling;
        head_sampling.max_total_paths = 64;
        const auto paths = sampler::PathSampler(head_sampling).sample(graph);
        std::vector<std::vector<graphir::TokenId>> tokens;
        std::vector<size_t> lengths;
        for (const auto &path : paths) {
            tokens.push_back(path.tokens);
            lengths.push_back(path.nodes.size());
        }
        summaries.push_back(core::reduceAggregates(
            graph, circuitformer->predict(tokens), lengths));
        const auto truth = oracle.run(graph);
        timing.push_back(truth.timing_ps);
        area.push_back(truth.area_um2);
        power.push_back(truth.power_mw);
    }
    auto heads = core::AggregationHeads::make(kModelSeed, kModelSeed + 1,
                                              kModelSeed + 2);
    core::MlpTrainConfig mlp;
    mlp.epochs = 64;
    mlp.seed = kModelSeed;
    heads.fit(summaries, timing, area, power, mlp);

    return std::make_shared<core::SnsPredictor>(
        circuitformer, std::move(heads), serve_sampling);
}

} // namespace snsbench
