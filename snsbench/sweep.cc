/**
 * @file
 * The prediction sweeps: `sweep_cold` / `sweep_cold_int8` (uncached
 * predictBatch over the design dataset, the `sns-cli predict` default)
 * and `sweep_dse` (the Fig. 8 BOOM sweep through one path cache held
 * across chunks). Their traced runs rebuild predictBatch from public
 * calls — sample, cache probe and dedup, Circuitformer::predict,
 * reduceAggregates, heads — with a span around each, and fail unless
 * the rebuilt result is bitwise equal to predictBatch.
 */

#include <algorithm>
#include <iostream>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "bench.hh"
#include "boom/boom.hh"
#include "designs/designs.hh"
#include "par/thread_pool.hh"
#include "perf/path_cache.hh"
#include "sampler/path_sampler.hh"
#include "tensor/autograd.hh"
#include "tensor/gemm.hh"
#include "tensor/qgemm.hh"
#include "trace.hh"

namespace snsbench {

using namespace sns;

namespace {

/** Designs per predictBatch call in the DSE sweep (as in Fig. 8). */
constexpr size_t kDseChunk = 64;
/** BOOM configurations per DSE sweep, an equal share per core width. */
constexpr size_t kDsePoints = 1024;
constexpr uint64_t kDseSetSeed = 0xd5e;
/** DSE points the cacheless reference re-predicts. */
constexpr size_t kDseCachelessSample = 4;

/** Layer counts the rebuilt pipeline gathers beside its spans. */
struct LayerCounts
{
    uint64_t designs = 0;
    uint64_t paths = 0;
    uint64_t tokens = 0;
    uint64_t design_unique_paths = 0;
};

/**
 * SnsPredictor::predictBatch rebuilt from public calls, one span per
 * layer. With `cache` it follows predictPathsCached: probe every
 * path, dedup the misses, forward each unique miss once, insert.
 */
core::SnsPrediction
rebuiltPredictOne(const core::SnsPredictor &predictor,
                  const graphir::Graph &graph, core::Precision precision,
                  perf::PathPredictionCache *cache, Tracer *tracer,
                  int64_t parent, LayerCounts &counts)
{
    ScopedSpan design_span(tracer, "design", parent);
    const int64_t design = design_span.id();
    core::SnsPrediction prediction;
    std::vector<sampler::SampledPath> paths;
    {
        ScopedSpan span(tracer, "sampler.sample", design);
        paths = sampler::PathSampler(predictor.samplerOptions())
                    .sample(graph);
    }
    prediction.paths_sampled = paths.size();
    std::vector<std::vector<graphir::TokenId>> token_paths;
    token_paths.reserve(paths.size());
    std::unordered_set<uint64_t> distinct;
    for (const auto &path : paths) {
        token_paths.push_back(path.tokens);
        counts.tokens += path.tokens.size();
        distinct.insert(perf::hashTokens(path.tokens));
    }
    counts.paths += paths.size();
    counts.design_unique_paths += distinct.size();
    if (paths.empty())
        return prediction;

    const int batch = core::PredictOptions().batch_size;
    std::vector<core::PathPrediction> preds(token_paths.size());
    if (cache == nullptr) {
        ScopedSpan span(tracer, "core.forward", design);
        preds = predictor.circuitformer().predict(token_paths, batch,
                                                  precision);
    } else {
        std::vector<size_t> unique;
        std::vector<size_t> assign(token_paths.size());
        std::vector<char> hit(token_paths.size(), 0);
        {
            ScopedSpan span(tracer, "perf.probe", design);
            if (!cache->bindModel(predictor.predictionFingerprint(precision)))
                throw std::runtime_error("path cache bound to another model");
            std::unordered_map<uint64_t, std::vector<size_t>> pending;
            for (size_t i = 0; i < token_paths.size(); ++i) {
                if (cache->lookup(token_paths[i], preds[i])) {
                    hit[i] = 1;
                    continue;
                }
                auto &slots = pending[perf::hashTokens(token_paths[i])];
                size_t slot = unique.size();
                for (const size_t candidate : slots) {
                    if (token_paths[unique[candidate]] == token_paths[i]) {
                        slot = candidate;
                        break;
                    }
                }
                if (slot == unique.size()) {
                    slots.push_back(slot);
                    unique.push_back(i);
                }
                assign[i] = slot;
            }
        }
        if (!unique.empty()) {
            std::vector<std::vector<graphir::TokenId>> miss_paths;
            for (const size_t index : unique)
                miss_paths.push_back(token_paths[index]);
            std::vector<core::PathPrediction> miss_preds;
            {
                ScopedSpan span(tracer, "core.forward", design);
                miss_preds = predictor.circuitformer().predict(
                    miss_paths, batch, precision);
            }
            ScopedSpan span(tracer, "perf.probe", design);
            for (size_t u = 0; u < unique.size(); ++u)
                cache->insert(miss_paths[u], miss_preds[u]);
            for (size_t i = 0; i < token_paths.size(); ++i) {
                if (!hit[i])
                    preds[i] = miss_preds[assign[i]];
            }
        }
    }

    ScopedSpan span(tracer, "core.reduce_heads", design);
    std::vector<double> activities;
    std::vector<size_t> lengths;
    for (const auto &path : paths) {
        activities.push_back(0.5 * (graph.activity(path.nodes.front()) +
                                    graph.activity(path.nodes.back())));
        lengths.push_back(path.nodes.size());
    }
    const auto summary =
        core::reduceAggregates(graph, preds, lengths, activities);
    const auto &heads = predictor.heads();
    prediction.timing_ps = heads.timing->predict(summary);
    prediction.area_um2 = heads.area->predict(summary);
    prediction.power_mw = heads.power->predict(summary);
    size_t argmax = 0;
    for (size_t i = 1; i < preds.size(); ++i) {
        if (preds[i].timing_ps > preds[argmax].timing_ps)
            argmax = i;
    }
    prediction.critical_path = paths[argmax].nodes;
    return prediction;
}

/** The rebuilt predictBatch: one task per design, like the original. */
std::vector<core::SnsPrediction>
rebuiltPredictBatch(const core::SnsPredictor &predictor,
                    const std::vector<const graphir::Graph *> &graphs,
                    core::Precision precision,
                    perf::PathPredictionCache *cache, Tracer *tracer,
                    LayerCounts &counts)
{
    ScopedSpan batch_span(tracer, "predict_batch");
    std::vector<core::SnsPrediction> out(graphs.size());
    std::vector<LayerCounts> per_design(graphs.size());
    par::parallelFor(graphs.size(), [&](size_t begin, size_t end) {
        tensor::NoGradGuard no_grad;
        for (size_t i = begin; i < end; ++i)
            out[i] = rebuiltPredictOne(predictor, *graphs[i], precision,
                                       cache, tracer, batch_span.id(),
                                       per_design[i]);
    });
    for (const auto &c : per_design) {
        counts.designs += 1;
        counts.paths += c.paths;
        counts.tokens += c.tokens;
        counts.design_unique_paths += c.design_unique_paths;
    }
    return out;
}

/** Report the span self times and counts of a rebuilt run. */
void
addLayerMetrics(Report &report, const Tracer &tracer,
                const LayerCounts &counts)
{
    const auto self = tracer.selfTimeMs();
    const auto per_design = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() || counts.designs == 0
                   ? 0.0
                   : it->second / static_cast<double>(counts.designs);
    };
    report.add("sampler.sample_ms", per_design("sampler.sample"), "ms");
    report.add("core.forward_ms", per_design("core.forward"), "ms");
    report.add("core.reduce_heads_ms", per_design("core.reduce_heads"),
               "ms");
    report.add("perf.probe_ms", per_design("perf.probe"), "ms");
    const double designs = static_cast<double>(counts.designs);
    const double paths = static_cast<double>(counts.paths);
    report.add("sampler.paths_per_design", paths / designs, "count");
    report.add("sampler.tokens_per_path",
               static_cast<double>(counts.tokens) / paths, "count");
    report.add("core.unique_path_frac",
               static_cast<double>(counts.design_unique_paths) / paths,
               "ratio");
}

/**
 * Unique cache entries per forwarded miss when the graphs run through
 * a fresh cache at `threads` (1 = designs in order; more = concurrent
 * designs may forward the same path twice).
 */
double
usefulForwardFrac(const core::SnsPredictor &predictor,
                  const std::vector<const graphir::Graph *> &graphs,
                  core::Precision precision, int threads)
{
    perf::PathPredictionCache cache(perf::PathCacheOptions{0, 16});
    core::PredictOptions options;
    options.threads = threads;
    options.cache = &cache;
    options.precision = precision;
    predictor.predictBatch(graphs, options);
    const auto stats = cache.stats();
    return stats.misses == 0 ? 1.0
                             : static_cast<double>(stats.entries) /
                                   static_cast<double>(stats.misses);
}

/** Time `fn` `reps` times; median microseconds. */
template <typename Fn>
double
medianMicros(int reps, Fn fn)
{
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        fn();
        us.push_back(secondsSince(start) * 1e6);
    }
    return median(us);
}

/** A padded plan input: what Circuitformer::predict packs per batch. */
struct PaddedBatch
{
    std::vector<int> ids;
    std::vector<int> lengths;
    int rows = 0;
    int time = 0;
};

/**
 * The batch of the corpus's median padded size (rows x time), cut the
 * way Circuitformer::predict cuts each design's paths.
 */
PaddedBatch
medianBatch(const core::SnsPredictor &predictor,
            const std::vector<const graphir::Graph *> &graphs)
{
    const int batch = core::PredictOptions().batch_size;
    const int cap =
        predictor.circuitformer().config().encoder.max_positions;
    std::vector<std::vector<std::vector<graphir::TokenId>>> batches;
    for (const auto *graph : graphs) {
        const auto paths =
            sampler::PathSampler(predictor.samplerOptions()).sample(*graph);
        for (size_t start = 0; start < paths.size(); start += batch) {
            std::vector<std::vector<graphir::TokenId>> rows;
            for (size_t i = start;
                 i < std::min(paths.size(), start + batch); ++i)
                rows.push_back(paths[i].tokens);
            batches.push_back(std::move(rows));
        }
    }
    const auto padded = [cap](const auto &rows) {
        size_t time = 1;
        for (const auto &row : rows)
            time = std::max(time, std::min<size_t>(cap, row.size()));
        return rows.size() * time;
    };
    std::sort(batches.begin(), batches.end(),
              [&](const auto &a, const auto &b) {
                  return padded(a) < padded(b);
              });
    const auto &rows = batches[batches.size() / 2];
    PaddedBatch out;
    out.rows = static_cast<int>(rows.size());
    out.time = 1;
    for (const auto &row : rows)
        out.time = std::max(out.time, std::min<int>(cap, row.size()));
    out.ids.assign(static_cast<size_t>(out.rows) * out.time,
                   graphir::Vocabulary::instance().padId());
    for (int b = 0; b < out.rows; ++b) {
        out.lengths.push_back(std::min<int>(cap, rows[b].size()));
        for (int t = 0; t < out.lengths.back(); ++t)
            out.ids[static_cast<size_t>(b) * out.time + t] = rows[b][t];
    }
    return out;
}

/**
 * Kernel rates at the shapes the served model runs: M = the median
 * padded batch's rows x time, and the (N, K) of the Q/K/V projections
 * and the two feed-forward GEMMs of the Table-2 encoder.
 */
void
addKernelMetrics(Report &report, const core::SnsPredictor &predictor,
                 int m)
{
    const auto &encoder = predictor.circuitformer().config().encoder;
    const int d = encoder.d_model;
    const int ff = encoder.d_ff;
    struct Shape
    {
        const char *name;
        int n;
        int k;
    };
    const Shape shapes[] = {{"qkv", d, d}, {"ffn_up", ff, d},
                            {"ffn_down", d, ff}};
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> real(-1.0f, 1.0f);
    constexpr int kReps = 20;
    for (const auto &shape : shapes) {
        const double ops = 2.0 * m * shape.n * shape.k;
        std::vector<float> a(static_cast<size_t>(m) * shape.k);
        std::vector<float> b(static_cast<size_t>(shape.k) * shape.n);
        for (auto &x : a)
            x = real(rng);
        for (auto &x : b)
            x = real(rng);
        std::vector<float> bt(tensor::gemmPackedFloats(shape.n, shape.k));
        tensor::gemmPackB(b.data(), shape.n, shape.k, false, bt.data());
        std::vector<float> c(static_cast<size_t>(m) * shape.n);
        const double us = medianMicros(kReps, [&] {
            std::fill(c.begin(), c.end(), 0.0f);
            tensor::gemmAccPacked(a.data(), b.data(), bt.data(), c.data(),
                                  m, shape.n, shape.k, false, false);
        });
        report.add(std::string("tensor.gemm_gflops.") + shape.name,
                   ops / us / 1e3, "GFLOP/s");

        std::vector<uint8_t> qa(a.size());
        std::vector<int8_t> qb(b.size());
        for (size_t i = 0; i < qa.size(); ++i)
            qa[i] = static_cast<uint8_t>(rng() % 128);
        for (size_t i = 0; i < qb.size(); ++i)
            qb[i] = static_cast<int8_t>(static_cast<int>(rng() % 255) - 127);
        tensor::QuantPanels panels;
        tensor::qgemmPackB(qb.data(), shape.k, shape.n, panels);
        std::vector<int32_t> qc(static_cast<size_t>(m) * shape.n);
        const double qus = medianMicros(kReps, [&] {
            tensor::qgemmI32(qa.data(), panels, qc.data(), m);
        });
        report.add(std::string("tensor.qgemm_gops.") + shape.name,
                   ops / qus / 1e3, "GOP/s");
    }
}

// --------------------------------------------------------------------
// sweep_cold / sweep_cold_int8
// --------------------------------------------------------------------

/**
 * The 41-design dataset plus three larger generator instances whose
 * bit widths come from --seed. Widths change the tokens, not the
 * structure, so every seed asks for the same amount of work. The order
 * is the dataset's, generators last: predictBatch hands each thread a
 * fixed index range, so the order sets each thread's share (par.scaling
 * shows the imbalance).
 */
std::vector<graphir::Graph>
coldCorpus(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::initializer_list<int> options) {
        return options.begin()[rng() % options.size()];
    };
    std::vector<graphir::Graph> graphs;
    for (const auto &spec : designs::DesignLibrary::paperDataset())
        graphs.push_back(spec.build());
    graphs.push_back(designs::buildSystolicArray(20, 20, pick({16, 32})));
    graphs.push_back(designs::buildFft(128, pick({16, 32})));
    graphs.push_back(designs::buildConvEngine(128, pick({8, 16}), 32));
    return graphs;
}

struct ColdState
{
    std::shared_ptr<core::SnsPredictor> predictor;
    std::vector<graphir::Graph> graphs;
    std::vector<const graphir::Graph *> ptrs;
};

} // namespace

Report
runSweepCold(const Args &args, bool int8)
{
    const core::Precision precision =
        int8 ? core::Precision::Int8 : core::Precision::Fp64;
    std::unique_ptr<ColdState> state;
    const double setup_s = timedSetup(state, [&] {
        auto s = std::make_unique<ColdState>();
        s->predictor = trainServedModel(args.seed);
        s->graphs = coldCorpus(args.seed);
        for (const auto &graph : s->graphs)
            s->ptrs.push_back(&graph);
        if (int8) {
            // Calibrate on four fixed dataset designs, as
            // `sns-cli quantize` calibrates on the designs it is given.
            std::vector<graphir::Graph> calibration;
            for (const auto &spec : designs::DesignLibrary::smokeSet())
                if (calibration.size() < 4)
                    calibration.push_back(spec.build());
            std::vector<const graphir::Graph *> cptrs;
            for (const auto &graph : calibration)
                cptrs.push_back(&graph);
            s->predictor->quantize(cptrs);
        }
        return s;
    });
    const auto &predictor = *state->predictor;
    const auto &ptrs = state->ptrs;

    // 1-thread reference through a fresh path cache: bitwise equal to
    // a cacheless pass (docs/perf.md) at a twentieth of its cost, and a
    // different code path from the timed one.
    perf::PathPredictionCache reference_cache;
    core::PredictOptions reference_options;
    reference_options.threads = 1;
    reference_options.precision = precision;
    reference_options.cache = &reference_cache;
    const auto reference = predictor.predictBatch(ptrs, reference_options);

    core::PredictOptions options;
    options.precision = precision;
    Report report;
    std::vector<double> pass_rss_mb; // peak RSS after each timed pass
    const auto timedPass = [&] {
        const auto start = Clock::now();
        const auto preds = predictor.predictBatch(ptrs, options);
        const double seconds = secondsSince(start);
        pass_rss_mb.push_back(peakRssMb());
        for (size_t i = 0; i < preds.size(); ++i)
            report.check(samePrediction(preds[i], reference[i]));
        return seconds;
    };
    const double designs = static_cast<double>(ptrs.size());

    if (!args.trace) {
        std::vector<double> passes;
        const auto start = Clock::now();
        while (passes.size() < 2 || secondsSince(start) < args.seconds)
            passes.push_back(timedPass());
        const double pass_s = median(passes);
        double total_s = 0.0;
        for (const double t : passes)
            total_s += t;
        std::cout << "sweep_cold" << (int8 ? "_int8" : "") << ": "
                  << passes.size() << " passes of " << ptrs.size()
                  << " designs, median " << pass_s
                  << " s:";
        for (const double t : passes)
            std::cout << " " << t;
        std::cout << "\n    peak RSS after each pass (MB):";
        for (const double mb : pass_rss_mb)
            std::cout << " " << mb;
        std::cout << "\n";
        report.add("setup_s", setup_s, "s");
        report.add("throughput_per_s",
                   designs * static_cast<double>(passes.size()) / total_s,
                   "1/s");
        report.add("latency_p50_ms", pass_s * 1e3, "ms");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        return report;
    }

    // Traced run: untraced and traced passes alternate so the overhead
    // compares like with like.
    Tracer tracer;
    LayerCounts counts;
    std::vector<double> untraced;
    std::vector<double> traced;
    for (int rep = 0; rep < 2; ++rep) {
        untraced.push_back(timedPass());
        tracer.clear();
        counts = LayerCounts();
        const auto start = Clock::now();
        const auto rebuilt = rebuiltPredictBatch(predictor, ptrs, precision,
                                                 nullptr, &tracer, counts);
        traced.push_back(secondsSince(start));
        for (size_t i = 0; i < rebuilt.size(); ++i)
            report.check(samePrediction(rebuilt[i], reference[i]));
    }
    tracer.write(tracePath(args.workload));
    addLayerMetrics(report, tracer, counts);
    report.add("trace.overhead_frac",
               median(traced) / median(untraced) - 1.0, "ratio");
    core::PredictOptions serial;
    serial.threads = 1;
    serial.precision = precision;
    const auto serial_start = Clock::now();
    const auto serial_preds = predictor.predictBatch(ptrs, serial);
    const double serial_s = secondsSince(serial_start);
    for (size_t i = 0; i < serial_preds.size(); ++i)
        report.check(samePrediction(serial_preds[i], reference[i]));
    report.add("par.scaling", serial_s / median(untraced), "ratio");
    report.add("perf.useful_forward_frac",
               usefulForwardFrac(predictor, ptrs, precision,
                                 hardwareThreads()),
               "ratio");
    report.add("perf.useful_forward_frac_1t",
               usefulForwardFrac(predictor, ptrs, precision, 1), "ratio");

    const PaddedBatch batch = medianBatch(predictor, ptrs);
    report.add("plan.batch_tokens", static_cast<double>(batch.rows) *
                                        batch.time, "count");
    constexpr int kPlanReps = 50;
    const auto &plan = predictor.circuitformer().boundPlan();
    report.add("plan.run_us", medianMicros(kPlanReps, [&] {
                   plan->run(batch.ids, batch.lengths, batch.rows,
                             batch.time);
               }),
               "us");
    if (int8) {
        const auto &qplan = predictor.circuitformer().boundQuantPlan();
        report.add("plan.run_us_int8", medianMicros(kPlanReps, [&] {
                       qplan->run(batch.ids, batch.lengths, batch.rows,
                                  batch.time);
                   }),
                   "us");
    }
    addKernelMetrics(report, predictor, batch.rows * batch.time);
    return report;
}

// --------------------------------------------------------------------
// sweep_dse
// --------------------------------------------------------------------

namespace {

/**
 * kDsePoints Table-10 configurations, kDsePoints/4 per core width. The
 * set is fixed; --seed orders it, so every seed sweeps the same work.
 */
std::vector<boom::BoomParams>
dsePoints(uint64_t seed)
{
    auto space = boom::boomDesignSpace();
    std::mt19937_64 pick(kDseSetSeed);
    std::shuffle(space.begin(), space.end(), pick);
    std::vector<boom::BoomParams> points;
    std::unordered_map<int, size_t> per_width;
    for (const auto &params : space) {
        if (per_width[params.core_width]++ < kDsePoints / 4)
            points.push_back(params);
    }
    std::mt19937_64 order(seed);
    std::shuffle(points.begin(), points.end(), order);
    return points;
}

/** Elaborate chunk `c` of the sweep (never timed), over the pool. */
std::vector<graphir::Graph>
elaborate(const std::vector<boom::BoomParams> &points, size_t c)
{
    const size_t begin = c * kDseChunk;
    std::vector<graphir::Graph> graphs(
        std::min(points.size(), begin + kDseChunk) - begin);
    par::parallelFor(graphs.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            graphs[i] = boom::buildBoomCore(points[begin + i]);
    });
    return graphs;
}

std::vector<const graphir::Graph *>
pointers(const std::vector<graphir::Graph> &graphs)
{
    std::vector<const graphir::Graph *> ptrs;
    for (const auto &graph : graphs)
        ptrs.push_back(&graph);
    return ptrs;
}

struct DseState
{
    std::shared_ptr<core::SnsPredictor> predictor;
    std::vector<boom::BoomParams> points;
};

} // namespace

Report
runSweepDse(const Args &args)
{
    std::unique_ptr<DseState> state;
    const double setup_s = timedSetup(state, [&] {
        auto s = std::make_unique<DseState>();
        s->predictor = trainServedModel(args.seed);
        s->points = dsePoints(args.seed);
        return s;
    });
    const auto &predictor = *state->predictor;
    const auto &points = state->points;
    const size_t chunks = (points.size() + kDseChunk - 1) / kDseChunk;

    // Reference: a 1-thread sweep through a fresh cache, plus a seeded
    // sample of points predicted at 1 thread without any cache.
    Report report;
    std::vector<core::SnsPrediction> reference;
    {
        perf::PathPredictionCache cache;
        core::PredictOptions options;
        options.threads = 1;
        options.cache = &cache;
        for (size_t c = 0; c < chunks; ++c) {
            const auto graphs = elaborate(points, c);
            for (auto &pred : predictor.predictBatch(pointers(graphs),
                                                     options))
                reference.push_back(std::move(pred));
        }
        std::mt19937_64 rng(args.seed ^ 0xd5e);
        core::PredictOptions cacheless;
        cacheless.threads = 1;
        for (size_t s = 0; s < kDseCachelessSample; ++s) {
            const size_t i = rng() % points.size();
            const auto graph = boom::buildBoomCore(points[i]);
            report.check(
                samePrediction(predictor.predict(graph, cacheless),
                               reference[i]));
        }
    }

    // One sweep: every chunk through one fresh cache. Returns the
    // predict-only seconds; elaboration is not timed.
    std::vector<double> chunk_ms;
    const auto sweep = [&](int threads, Tracer *tracer, LayerCounts *counts,
                           perf::CacheStats *stats) {
        perf::PathPredictionCache cache;
        core::PredictOptions options;
        options.threads = threads;
        options.cache = &cache;
        double seconds = 0.0;
        for (size_t c = 0; c < chunks; ++c) {
            const auto graphs = elaborate(points, c);
            const auto ptrs = pointers(graphs);
            const auto start = Clock::now();
            const auto preds =
                tracer == nullptr
                    ? predictor.predictBatch(ptrs, options)
                    : rebuiltPredictBatch(predictor, ptrs,
                                          core::Precision::Fp64, &cache,
                                          tracer, *counts);
            const double dt = secondsSince(start);
            seconds += dt;
            if (tracer == nullptr)
                chunk_ms.push_back(dt * 1e3);
            for (size_t i = 0; i < preds.size(); ++i)
                report.check(
                    samePrediction(preds[i], reference[c * kDseChunk + i]));
        }
        if (stats != nullptr)
            *stats = cache.stats();
        return seconds;
    };
    const double designs = static_cast<double>(points.size());

    if (!args.trace) {
        std::vector<double> sweeps;
        const auto start = Clock::now();
        while (sweeps.size() < 2 || secondsSince(start) < args.seconds)
            sweeps.push_back(sweep(0, nullptr, nullptr, nullptr));
        const double sweep_s = median(sweeps);
        double total_s = 0.0;
        for (const double t : sweeps)
            total_s += t;
        std::cout << "sweep_dse: " << sweeps.size() << " sweeps of "
                  << points.size() << " BOOM configurations in chunks of "
                  << kDseChunk << ", median " << sweep_s << " s:";
        for (const double t : sweeps)
            std::cout << " " << t;
        std::cout << "\n";
        report.add("setup_s", setup_s, "s");
        report.add("throughput_per_s",
                   designs * static_cast<double>(sweeps.size()) / total_s,
                   "1/s");
        report.add("latency_p50_ms", median(chunk_ms), "ms");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        return report;
    }

    Tracer tracer;
    LayerCounts counts;
    perf::CacheStats stats;
    std::vector<double> untraced;
    std::vector<double> traced;
    for (int rep = 0; rep < 2; ++rep) {
        untraced.push_back(sweep(0, nullptr, nullptr, nullptr));
        tracer.clear();
        counts = LayerCounts();
        traced.push_back(sweep(0, &tracer, &counts, &stats));
    }
    tracer.write(tracePath(args.workload));
    addLayerMetrics(report, tracer, counts);
    report.add("perf.hit_rate", stats.hitRate(), "ratio");
    report.add("perf.useful_forward_frac",
               stats.misses == 0 ? 1.0
                                 : static_cast<double>(stats.entries) /
                                       static_cast<double>(stats.misses),
               "ratio");
    perf::CacheStats serial;
    sweep(1, nullptr, nullptr, &serial);
    report.add("perf.useful_forward_frac_1t",
               serial.misses == 0 ? 1.0
                                  : static_cast<double>(serial.entries) /
                                        static_cast<double>(serial.misses),
               "ratio");
    report.add("trace.overhead_frac",
               median(traced) / median(untraced) - 1.0, "ratio");
    return report;
}

} // namespace snsbench
