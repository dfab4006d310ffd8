/**
 * @file
 * The `train` workload: a fixed number of Table-2 Circuitformer epochs
 * on a path dataset built in setup, data-parallel over an in-process
 * dist::localRing of up to nproc ranks (one thread each), exactly as
 * SnsTrainer wires a rank: ZeRO-sharded Adam moments, ring handshake,
 * slice-deterministic epochs. Every rank's final weights must be
 * bitwise equal to a single-process run of the same schedule.
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <thread>

#include "bench.hh"
#include "core/circuitformer.hh"
#include "designs/designs.hh"
#include "dist/exchange.hh"
#include "dist/ring.hh"
#include "nn/optim.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "sampler/path_sampler.hh"
#include "synth/synthesizer.hh"
#include "trace.hh"

namespace snsbench {

using namespace sns;

namespace {

constexpr int kEpochs = 2;        ///< epochs per training run
constexpr int kBatch = 128;       ///< TrainerConfig::circuitformer_batch
constexpr int kGradSlices = 8;    ///< slice tree (2^k worlds <= 8 agree)
constexpr uint64_t kInitSeed = 0x7a1;

struct TrainState
{
    std::vector<core::PathRecord> records;
};

/** Paths sampled from every dataset design (sampling seeded by
 * --seed), labelled by the synthesis oracle. */
std::vector<core::PathRecord>
pathDataset(uint64_t seed)
{
    sampler::SamplerOptions options;
    options.max_paths_per_source = 4;
    options.max_total_paths = 16;
    options.seed = seed;
    std::vector<std::vector<graphir::TokenId>> tokens;
    for (const auto &spec : designs::DesignLibrary::paperDataset()) {
        for (auto &path :
             sampler::PathSampler(options).sample(spec.build()))
            tokens.push_back(std::move(path.tokens));
    }
    const auto labels =
        synth::Synthesizer(synth::SynthesisOptions{}).runPaths(tokens);
    std::vector<core::PathRecord> records;
    for (size_t i = 0; i < tokens.size(); ++i) {
        records.push_back({tokens[i], labels[i].timing_ps,
                           labels[i].area_um2, labels[i].power_mw});
    }
    return records;
}

std::vector<float>
flatWeights(const core::Circuitformer &model)
{
    std::vector<float> flat;
    for (const auto &param : model.parameters()) {
        const auto &value = param.value();
        flat.insert(flat.end(), value.data(), value.data() + value.numel());
    }
    return flat;
}

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** What one rank of one training run leaves behind. */
struct RankResult
{
    std::vector<float> weights;
    std::vector<double> epoch_ms;
    double wall_s = 0.0;
    uint64_t allreduce_us = 0;
    uint64_t bytes_sent = 0;
    std::string error;
};

/**
 * One rank of one training run; `channel` null means the
 * single-process reference (LocalExchange over the same slice tree).
 */
RankResult
trainRank(const std::vector<core::PathRecord> &records, int world,
          int rank, std::shared_ptr<dist::RingChannel> channel,
          Tracer *tracer, int64_t parent)
{
    RankResult result;
    obs::Registry registry;
    const auto start = Clock::now();
    core::CircuitformerConfig config;
    config.seed = kInitSeed;
    core::Circuitformer model(config);
    model.fitNormalization(records);
    auto params = model.parameters();
    nn::Adam adam(params, 1e-3);
    std::vector<size_t> elems;
    for (const auto &param : params)
        elems.push_back(param.value().numel());
    const auto cuts = dist::partitionParams(elems, world);
    adam.shardMoments(cuts[rank], cuts[rank + 1]);
    std::unique_ptr<dist::GradientExchange> exchange;
    if (channel) {
        auto ring = std::make_unique<dist::RingExchange>(
            std::move(channel), world, rank, kGradSlices, &registry);
        ring->handshake(kInitSeed, records.size(), dist::flatSize(params));
        exchange = std::move(ring);
    } else {
        exchange = std::make_unique<dist::LocalExchange>(kGradSlices);
    }
    std::vector<size_t> prefix(elems.size() + 1, 0);
    for (size_t i = 0; i < elems.size(); ++i)
        prefix[i + 1] = prefix[i] + elems[i];
    std::vector<size_t> elem_cuts;
    for (const size_t cut : cuts)
        elem_cuts.push_back(prefix[cut]);
    exchange->setWeightPartition(std::move(elem_cuts));

    Rng epoch_rng(kInitSeed);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
        ScopedSpan span(tracer, "train.epoch", parent);
        const auto epoch_start = Clock::now();
        model.trainEpochSliced(records, adam, epoch_rng, kBatch, *exchange);
        result.epoch_ms.push_back(secondsSince(epoch_start) * 1e3);
    }
    result.wall_s = secondsSince(start);
    result.weights = flatWeights(model);
    result.allreduce_us =
        registry.histogram("dist.allreduce_us").snapshot().sum;
    result.bytes_sent = registry.counter("dist.bytes_sent").value();
    return result;
}

/** One training run of `world` ranks over a local ring. */
std::vector<RankResult>
trainWorld(const std::vector<core::PathRecord> &records, int world,
           Tracer *tracer)
{
    ScopedSpan run_span(tracer, "train.run");
    auto ring = dist::localRing(world);
    std::vector<RankResult> results(world);
    std::vector<std::thread> ranks;
    for (int r = 0; r < world; ++r) {
        ranks.emplace_back([&, r] {
            try {
                results[r] = trainRank(records, world, r, ring[r], tracer,
                                       run_span.id());
            } catch (const std::exception &e) {
                results[r].error = e.what();
            }
        });
    }
    for (auto &rank : ranks)
        rank.join();
    for (const auto &result : results) {
        if (!result.error.empty())
            throw std::runtime_error("training rank failed: " +
                                     result.error);
    }
    return results;
}

} // namespace

Report
runTrain(const Args &args)
{
    std::unique_ptr<TrainState> state;
    const double setup_s = timedSetup(state, [&] {
        auto s = std::make_unique<TrainState>();
        s->records = pathDataset(args.seed);
        return s;
    });
    const auto &records = state->records;
    // The slice tree only splits over power-of-two worlds
    // (V-DIST-WORLD), so round the host's width down to one.
    int world = 1;
    while (world * 2 <= std::min(hardwareThreads(), kGradSlices))
        world *= 2;
    if (world < 2)
        throw std::runtime_error("train needs at least 2 hardware threads");

    const RankResult reference =
        trainRank(records, 1, 0, nullptr, nullptr, Tracer::kNoParent);

    // Each rank is one thread with a serial pool, as each rank process
    // of `sns-cli train --ranks=N` is: the ranks fill the cores. The
    // traced run alternates untraced and traced training runs; the
    // layer numbers come from the traced ones.
    par::setThreads(1);
    Report report;
    Tracer tracer;
    std::vector<double> run_s;
    std::vector<double> traced_s;
    std::vector<double> epoch_ms;
    double allreduce_share = 0.0;
    double bytes_per_epoch = 0.0;
    const auto start = Clock::now();
    while (run_s.size() < 2 || secondsSince(start) < args.seconds) {
        const bool traced = args.trace && run_s.size() > traced_s.size();
        const auto run_start = Clock::now();
        const auto ranks =
            trainWorld(records, world, traced ? &tracer : nullptr);
        (traced ? traced_s : run_s).push_back(secondsSince(run_start));
        for (const auto &rank : ranks)
            report.check(sameBits(rank.weights, reference.weights));
        if (traced == args.trace) {
            const RankResult &lead = ranks.front();
            epoch_ms.insert(epoch_ms.end(), lead.epoch_ms.begin(),
                            lead.epoch_ms.end());
            allreduce_share = static_cast<double>(lead.allreduce_us) /
                              1e6 / lead.wall_s;
            bytes_per_epoch =
                static_cast<double>(lead.bytes_sent) / kEpochs;
        }
    }
    const double samples = static_cast<double>(records.size()) * kEpochs;
    std::cout << "train: " << run_s.size() + traced_s.size() << " runs of "
              << kEpochs << " epochs x " << records.size()
              << " paths at world " << world << ", median untraced run "
              << median(run_s) << " s (";
    for (const double t : run_s)
        std::cout << " " << t;
    std::cout << " )\n";

    if (!args.trace) {
        report.add("setup_s", setup_s, "s");
        double total_s = 0.0;
        for (const double t : run_s)
            total_s += t;
        report.add("throughput_per_s",
                   samples * static_cast<double>(run_s.size()) / total_s,
                   "1/s");
        report.add("latency_p50_ms", median(epoch_ms), "ms");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        return report;
    }
    tracer.write(tracePath(args.workload));
    report.add("train.epoch_ms", median(epoch_ms), "ms");
    report.add("dist.allreduce_share", allreduce_share, "ratio");
    report.add("dist.bytes_per_epoch", bytes_per_epoch, "bytes");
    report.add("trace.overhead_frac",
               median(traced_s) / median(run_s) - 1.0, "ratio");
    return report;
}

} // namespace snsbench
