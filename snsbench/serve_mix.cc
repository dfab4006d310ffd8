/**
 * @file
 * The `serve_mix` workload: an in-process sns-router in front of two
 * sns-serve workers that load the saved model the way the daemon does,
 * driven by this process alone over at most nproc connections.
 *
 *   - An open-loop PREDICT stream of SNL designs at a few fixed rates:
 *     mostly BOOM DSE variants that share paths, plus a minority of
 *     fresh designs that share none. Requests are due at fixed
 *     intervals and timed from when they were due, so a stall also
 *     counts against the requests queued behind it.
 *   - Beside it, one closed-loop edit-loop session: OPEN, then UPDATE
 *     with the next revision, again and again.
 *
 * Every reply is compared bitwise with a local 1-thread prediction of
 * the same parsed design; a refusal (OVERLOADED, DRAINING, deadline)
 * is a failed request like a mismatch.
 */

#include <atomic>
#include <mutex>
#include <filesystem>
#include <iostream>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "boom/boom.hh"
#include "cluster/router.hh"
#include "netlist/snl_parser.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "trace.hh"

namespace snsbench {

using namespace sns;

namespace {

/**
 * Offered PREDICT rates (requests/s) and the p99 limit, set from the
 * seed code's capacity on a 4-thread x86-64 host (AVX-512), 270-370
 * replies/s: the reference rate is about half of it, the middle rate
 * at it, and the last far past it, so its reply rate is the capacity
 * (snsbench/README.md).
 */
constexpr double kRates[] = {150.0, 300.0, 700.0};
constexpr size_t kReferenceRate = 0;
constexpr double kSloMs = 100.0;
/** p99 needs at least 10 samples beyond it. */
constexpr size_t kMinSamples = 1100;

constexpr double kHopProbeRate = 50.0;
constexpr size_t kProbeRequests = 100;

/*
 * The traffic mix. There is no recorded SNS request trace to take it
 * from, so the shares and the think time below are assumptions, not
 * measurements; snsbench/README.md ("Where the mix comes from") gives
 * the source or the reasoning of each value.
 */
/** Distinct BOOM variants offered, 12 per Table-10 core width: the
 * corpus size of bench/cluster_throughput (an assumption). */
constexpr size_t kDseDesigns = 48;
constexpr uint64_t kCorpusSeed = 0xb00;
/** Requests for a never-seen design (an assumption: "a minority"). */
constexpr double kFreshShare = 0.15;
/** Edit-loop revisions, cycled (an assumption). */
constexpr int kRevisions = 8;
/** The designer's pause between an UPDATE reply and the next edit (an
 * assumption). */
constexpr auto kThinkTime = std::chrono::milliseconds(10);
/** Modules of the edit-loop design, as in bench/edit_loop. */
constexpr int kModules = 12;

const std::string kRunDir = ".bench_run";

/** A design of independent random chains; `key` makes its paths
 * unique to it, so it shares nothing with any other request. */
std::string
freshDesign(uint64_t key)
{
    static const char *const kOps[] = {"and", "or", "xor", "add", "mul"};
    static const int kWidths[] = {8, 16, 32, 64};
    std::mt19937_64 rng(key);
    const auto pick = [&rng](const auto &table) {
        return table[rng() % std::size(table)];
    };
    std::ostringstream out;
    out << "design fresh" << key << "\n";
    for (int c = 0; c < 3; ++c) {
        out << "input  x" << c << " " << pick(kWidths) << "\n";
        out << "reg    k" << c << " " << pick(kWidths) << "\n";
        int width = 0;
        for (int d = 0; d < 12; ++d) {
            width = pick(kWidths);
            out << "node   n" << c << "_" << d << " " << pick(kOps) << " "
                << width << " " << (d == 0 ? "x" : "n") << c;
            if (d > 0)
                out << "_" << d - 1;
            out << " k" << c << "\n";
        }
        out << "reg    r" << c << " " << width << " n" << c << "_11\n";
        out << "output y" << c << " " << width << " r" << c << "\n";
    }
    return out.str();
}

/** Revision `rev` of the edit-loop design: kModules FIR modules, of
 * which one changes its tap count and width from revision to
 * revision. */
std::string
editDesign(int rev, uint64_t seed)
{
    const int edited = static_cast<int>(seed % kModules);
    std::ostringstream out;
    out << "design editloop\n";
    for (int m = 0; m < kModules; ++m) {
        int taps = 3 + m % 3;
        int width = 8 + 2 * (m % 5);
        if (m == edited) {
            taps = 2 + rev % 4;
            width = 6 + 4 * (rev % 5);
        }
        const int acc = 2 * width;
        out << "module fir" << m << "\n";
        out << "input  x" << m << " " << width << "\n";
        for (int t = 0; t < taps; ++t)
            out << "reg    c" << m << "_" << t << " " << width << "\n";
        for (int t = 0; t < taps; ++t)
            out << "node   p" << m << "_" << t << " mul " << acc << " x" << m
                << " c" << m << "_" << t << "\n";
        out << "reg    z" << m << "_0 " << acc << " p" << m << "_0\n";
        for (int t = 1; t < taps; ++t) {
            out << "node   s" << m << "_" << t << " add " << acc << " p" << m
                << "_" << t << " z" << m << "_" << t - 1 << "\n";
            out << "reg    z" << m << "_" << t << " " << acc << " s" << m
                << "_" << t << "\n";
        }
        out << "output y" << m << " " << acc << " z" << m << "_" << taps - 1
            << "\n";
    }
    return out.str();
}

/** One scheduled PREDICT: its design and when it is due. */
struct Request
{
    double due_s = 0.0;
    size_t design = 0; ///< index into the run's design table
};

/** Everything a run serves: sources and their local references. */
struct Designs
{
    std::vector<std::string> sources;
    std::vector<core::SnsPrediction> reference;
};

struct ServeState
{
    std::shared_ptr<core::SnsPredictor> local; ///< the reference model
    std::vector<std::unique_ptr<obs::Registry>> registries;
    std::vector<std::unique_ptr<serve::Server>> workers;
    obs::Registry router_registry;
    std::unique_ptr<cluster::Router> router;
    std::string router_path;
    std::vector<std::string> worker_paths;
    std::vector<std::string> dse_sources;
};

std::unique_ptr<ServeState>
startCluster(uint64_t seed)
{
    auto s = std::make_unique<ServeState>();
    std::filesystem::remove_all(kRunDir + "/serve");
    std::filesystem::create_directories(kRunDir + "/serve");
    const std::string model_dir = kRunDir + "/serve/model";
    trainServedModel(seed)->save(model_dir);
    // The reference model is loaded too: a save/load round trip
    // float-snaps the normalization statistics (docs/serving.md).
    s->local = std::make_shared<core::SnsPredictor>(
        core::SnsPredictor::load(model_dir));
    for (int w = 0; w < 2; ++w) {
        s->registries.push_back(std::make_unique<obs::Registry>());
        serve::ServerOptions options;
        options.unix_path =
            kRunDir + "/serve/w" + std::to_string(w) + ".sock";
        options.registry = s->registries.back().get();
        s->worker_paths.push_back(options.unix_path);
        s->workers.push_back(std::make_unique<serve::Server>(
            std::make_shared<const core::SnsPredictor>(
                core::SnsPredictor::load(model_dir)),
            options));
        s->workers.back()->start();
    }
    cluster::RouterOptions options;
    options.unix_path = kRunDir + "/serve/router.sock";
    for (const auto &path : s->worker_paths)
        options.workers.push_back(
            cluster::WorkerAddress::parse("unix:" + path));
    options.registry = &s->router_registry;
    s->router_path = options.unix_path;
    s->router = std::make_unique<cluster::Router>(options);
    s->router->start();

    // A fixed set of variants, an equal share per core width: the seed
    // varies the traffic, not the corpus, whose hash placement on the
    // ring decides each worker's share.
    auto space = boom::boomDesignSpace();
    std::mt19937_64 rng(kCorpusSeed);
    std::shuffle(space.begin(), space.end(), rng);
    std::unordered_map<int, size_t> per_width;
    for (const auto &params : space) {
        if (per_width[params.core_width]++ < kDseDesigns / 4)
            s->dse_sources.push_back(
                netlist::writeSnl(boom::buildBoomCore(params)));
    }
    return s;
}

/** Local 1-thread predictions of the parsed sources (a fresh cache:
 * bitwise equal to cacheless, docs/perf.md). */
std::vector<core::SnsPrediction>
localReference(const core::SnsPredictor &predictor,
               const std::vector<std::string> &sources)
{
    std::vector<graphir::Graph> graphs;
    for (const auto &source : sources)
        graphs.push_back(netlist::parseSnl(source));
    std::vector<const graphir::Graph *> ptrs;
    for (const auto &graph : graphs)
        ptrs.push_back(&graph);
    perf::PathPredictionCache cache;
    core::PredictOptions options;
    options.threads = 1;
    options.cache = &cache;
    return predictor.predictBatch(ptrs, options);
}

bool
sameReply(const serve::PredictReply &reply, const core::SnsPrediction &want)
{
    return reply.status == serve::Status::Ok &&
           samePrediction(reply.prediction, want);
}

/** What one fixed-rate phase measured. */
struct RateResult
{
    double rate = 0.0;
    std::vector<double> latency_ms; ///< from due to reply
    std::vector<double> late_ms;    ///< from due to send
    bool growing = false;           ///< backlog grew over the phase
    double p50 = 0.0;
    double p99 = 0.0;
    double achieved = 0.0; ///< replies per second over the phase
};

/**
 * Send `schedule` open-loop over `connections` router connections:
 * request i is sent when due, or as soon as a connection frees up if
 * they are all busy; its latency runs from when it was due. With a
 * tracer, every even request gets a span and odd ones none, so one
 * phase yields the traced and the untraced latency side by side.
 */
RateResult
runSchedule(const std::string &socket,
            const std::vector<Request> &schedule, const Designs &designs,
            int connections, Report &report, Tracer *tracer,
            uint64_t &request_id)
{
    RateResult result;
    const size_t n = schedule.size();
    std::vector<double> latency(n);
    std::vector<double> late(n);
    std::vector<char> ok(n, 0);
    std::atomic<size_t> next{0};
    const uint64_t first_id = request_id;
    request_id += n;
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    std::mutex error_mutex; ///< guards error
    std::string error;
    std::vector<std::thread> senders;
    for (int c = 0; c < connections; ++c) {
        senders.emplace_back([&] {
            try {
                auto client = serve::Client::connectUnix(socket);
                for (size_t i = next++; i < n; i = next++) {
                    const auto due =
                        start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        schedule[i].due_s));
                    std::this_thread::sleep_until(due);
                    ScopedSpan span(i % 2 == 0 ? tracer : nullptr,
                                    "serve.request", Tracer::kNoParent,
                                    first_id + i);
                    const auto sent = Clock::now();
                    const auto reply = client.predict(
                        designs.sources[schedule[i].design],
                        serve::DesignFormat::Snl);
                    const auto done = Clock::now();
                    latency[i] =
                        std::chrono::duration<double, std::milli>(done - due)
                            .count();
                    late[i] =
                        std::chrono::duration<double, std::milli>(sent - due)
                            .count();
                    ok[i] = sameReply(reply,
                                      designs.reference[schedule[i].design]);
                }
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(error_mutex);
                error = e.what();
            }
        });
    }
    for (auto &sender : senders)
        sender.join();
    if (!error.empty())
        throw std::runtime_error("request stream failed: " + error);
    result.achieved = static_cast<double>(n) / secondsSince(start);
    for (size_t i = 0; i < n; ++i)
        report.check(ok[i] != 0);
    result.latency_ms = latency;
    result.late_ms = late;
    result.p50 = quantile(latency, 0.50);
    result.p99 = quantile(latency, 0.99);
    // A growing backlog: the generator runs later and later behind
    // schedule — the last quarter waits a quarter-limit more than the
    // first.
    const size_t quarter = n / 4;
    const std::vector<double> head(late.begin(), late.begin() + quarter);
    const std::vector<double> tail(late.end() - quarter, late.end());
    result.growing = median(tail) > median(head) + kSloMs / 4.0;
    return result;
}

/**
 * The router hop: routed minus direct p50, in microseconds, from one
 * sender alternating the probe's requests between a router connection
 * and a direct connection to a worker (both workers already hold every
 * probe design), so both kinds see the same moments of the run.
 */
double
hopMicros(const ServeState &state, const std::vector<Request> &probe,
          const Designs &designs, Report &report)
{
    serve::Client clients[2] = {
        serve::Client::connectUnix(state.worker_paths[0]),
        serve::Client::connectUnix(state.router_path)};
    std::vector<double> ms[2];
    const auto start = Clock::now();
    for (size_t i = 0; i < probe.size(); ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(probe[i].due_s)));
        const auto sent = Clock::now();
        const auto reply = clients[i % 2].predict(
            designs.sources[probe[i].design], serve::DesignFormat::Snl);
        ms[i % 2].push_back(secondsSince(sent) * 1e3);
        report.check(sameReply(reply, designs.reference[probe[i].design]));
    }
    return (median(ms[1]) - median(ms[0])) * 1e3;
}

/**
 * The highest offered rate that meets the p99 limit with no growing
 * backlog, interpolated in log(p99) between the last rate that meets
 * it and the first that does not (so the figure moves continuously).
 */
double
maxRateUnderSlo(const std::vector<RateResult> &rates)
{
    size_t pass = 0;
    bool any = false;
    for (size_t k = 0; k < rates.size(); ++k) {
        if (rates[k].p99 > kSloMs || rates[k].growing)
            break;
        pass = k;
        any = true;
    }
    if (!any)
        return rates.front().rate * kSloMs / rates.front().p99;
    if (pass + 1 == rates.size())
        return rates.back().rate;
    const RateResult &lo = rates[pass];
    const RateResult &hi = rates[pass + 1];
    const double span = std::log(hi.p99) - std::log(lo.p99);
    const double frac =
        span <= 0.0 ? 0.0
                    : (std::log(kSloMs) - std::log(lo.p99)) / span;
    return lo.rate + std::clamp(frac, 0.0, 1.0) * (hi.rate - lo.rate);
}

} // namespace

Report
runServeMix(const Args &args)
{
    std::unique_ptr<ServeState> state;
    const double setup_s = timedSetup(state, [&] {
        return startCluster(args.seed);
    });
    const int connections = std::max(1, hardwareThreads() - 1);

    // Samples per rate: --seconds spread so every rate gets the same
    // count, never fewer than kMinSamples.
    double inverse = 0.0;
    for (const double rate : kRates)
        inverse += 1.0 / rate;
    const size_t per_rate = std::max(
        kMinSamples, static_cast<size_t>(args.seconds / inverse));

    // The run's design table: the DSE variants, then one fresh design
    // per fresh request, and a seeded schedule for every rate.
    std::mt19937_64 rng(args.seed ^ 0x5e7e);
    Designs designs;
    designs.sources = state->dse_sources;
    const auto makeSchedule = [&](double rate, size_t count,
                                  double fresh_share) {
        std::vector<Request> schedule;
        for (size_t i = 0; i < count; ++i) {
            Request request;
            request.due_s = static_cast<double>(i) / rate;
            if (std::uniform_real_distribution<double>()(rng) <
                fresh_share) {
                request.design = designs.sources.size();
                designs.sources.push_back(freshDesign(rng()));
            } else {
                request.design = rng() % kDseDesigns;
            }
            schedule.push_back(request);
        }
        return schedule;
    };
    std::vector<std::vector<Request>> schedules;
    for (const double rate : kRates)
        schedules.push_back(makeSchedule(rate, per_rate, kFreshShare));
    // The traced run's router-hop probe: DSE designs only, so every
    // probe request finds a warm cache.
    const auto hop_probe =
        makeSchedule(kHopProbeRate, 2 * kProbeRequests, 0.0);
    designs.reference = localReference(*state->local, designs.sources);

    std::vector<std::string> revisions;
    for (int r = 0; r < kRevisions; ++r)
        revisions.push_back(editDesign(r, args.seed));
    const auto revision_reference =
        [&] {
            std::vector<core::SnsPrediction> out;
            core::PredictOptions options;
            options.threads = 1;
            for (const auto &source : revisions)
                out.push_back(state->local->predict(
                    netlist::parseSnl(source), options));
            return out;
        }();

    Report report;
    Tracer tracer;
    Tracer *traced = args.trace ? &tracer : nullptr;
    uint64_t request_id = 1;

    // The edit-loop session runs beside the whole PREDICT ladder.
    std::atomic<bool> stop{false};
    std::vector<double> update_ms;
    double reused = 0.0;
    double total_paths = 0.0;
    uint64_t session_checked = 0;
    uint64_t session_failed = 0;
    std::string session_error;
    std::thread session([&] {
        try {
            auto client = serve::Client::connectUnix(state->router_path);
            client.hello();
            const auto open = client.openSession(revisions[0],
                                                 serve::DesignFormat::Snl);
            ++session_checked;
            if (open.status != serve::Status::Ok ||
                !samePrediction(open.prediction, revision_reference[0])) {
                ++session_failed;
                return;
            }
            for (int r = 1; !stop.load(); ++r) {
                std::this_thread::sleep_for(kThinkTime);
                const int rev = r % kRevisions;
                ScopedSpan span(traced, "session.update", Tracer::kNoParent);
                const auto start = Clock::now();
                const auto reply = client.updateSession(
                    open.session_id, revisions[rev], serve::DesignFormat::Snl);
                update_ms.push_back(secondsSince(start) * 1e3);
                ++session_checked;
                if (reply.status != serve::Status::Ok ||
                    !samePrediction(reply.prediction, revision_reference[rev]))
                    ++session_failed;
                reused += static_cast<double>(reply.diff.paths_reused);
                total_paths += static_cast<double>(reply.diff.paths_total);
            }
            client.closeSession(open.session_id);
        } catch (const std::exception &e) {
            session_error = e.what();
        }
    });

    // Warm-up: every DSE variant once, so the ladder measures the warm
    // path cache a long-running daemon has. Then the ladder; the session
    // stops (and is joined) however the ladder ends.
    std::vector<RateResult> rates;
    try {
        {
            auto client = serve::Client::connectUnix(state->router_path);
            for (size_t i = 0; i < kDseDesigns; ++i)
                report.check(sameReply(
                    client.predict(designs.sources[i],
                                   serve::DesignFormat::Snl),
                    designs.reference[i]));
        }
        for (size_t k = 0; k < std::size(kRates); ++k) {
            rates.push_back(runSchedule(state->router_path, schedules[k],
                                        designs, connections, report,
                                        traced, request_id));
            rates.back().rate = kRates[k];
        }
    } catch (...) {
        stop.store(true);
        session.join();
        throw;
    }
    stop.store(true);
    session.join();
    if (!session_error.empty())
        throw std::runtime_error("edit-loop session failed: " +
                                 session_error);
    report.attempted += session_checked;
    report.failed += session_failed;

    const RateResult &reference_rate = rates[kReferenceRate];
    std::cout << "serve_mix: " << per_rate << " requests per rate over "
              << connections << " connections, p99 limit " << kSloMs
              << " ms\n";
    for (const auto &r : rates) {
        std::cout << "  rate " << r.rate << "/s: p50 " << r.p50
                  << " ms, p99 " << r.p99 << " ms, max late "
                  << *std::max_element(r.late_ms.begin(), r.late_ms.end())
                  << " ms, achieved " << r.achieved << "/s"
                  << (r.growing ? ", backlog growing" : "")
                  << "\n";
    }
    std::cout << "  session: " << update_ms.size() << " updates, p50 "
              << quantile(update_ms, 0.5) << " ms, p99 "
              << quantile(update_ms, 0.99) << " ms\n";

    if (!args.trace) {
        report.add("setup_s", setup_s, "s");
        report.add("throughput_per_s", rates.back().achieved, "1/s");
        report.add("latency_p50_ms", reference_rate.p50, "ms");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        return report;
    }

    // Traced-only: both workers warm for every DSE design, the router
    // hop, the tracing overhead, then the per-layer counters.
    for (const auto &path : state->worker_paths) {
        auto client = serve::Client::connectUnix(path);
        for (size_t i = 0; i < kDseDesigns; ++i)
            report.check(sameReply(
                client.predict(designs.sources[i], serve::DesignFormat::Snl),
                designs.reference[i]));
    }
    report.add("cluster.hop_us", hopMicros(*state, hop_probe, designs, report),
               "us");
    std::vector<double> by_parity[2];
    for (size_t i = 0; i < reference_rate.latency_ms.size(); ++i)
        by_parity[i % 2].push_back(reference_rate.latency_ms[i]);
    report.add("trace.overhead_frac",
               median(by_parity[0]) / median(by_parity[1]) - 1.0, "ratio");

    double parse_ms = 0.0;
    size_t parsed = 0;
    for (const auto &request : schedules[kReferenceRate]) {
        const auto start = Clock::now();
        netlist::parseSnl(designs.sources[request.design]);
        parse_ms += secondsSince(start) * 1e3;
        ++parsed;
    }
    report.add("netlist.parse_ms", parse_ms / static_cast<double>(parsed),
               "ms");

    double batches = 0.0, batched = 0.0, rejected = 0.0, hits = 0.0,
           probes = 0.0, weighted_p50 = 0.0, served = 0.0, share_max = 0.0;
    std::vector<double> per_worker;
    for (size_t w = 0; w < state->workers.size(); ++w) {
        auto &registry = *state->registries[w];
        batches += registry.counter("serve.batches_total").value();
        batched += registry.counter("serve.batched_designs_total").value();
        rejected += registry.counter("serve.rejected_overloaded").value() +
                    registry.counter("serve.rejected_deadline").value() +
                    registry.counter("serve.rejected_draining").value();
        const auto latency =
            registry.histogram("serve.request_latency_us").snapshot();
        weighted_p50 += latency.p50 * static_cast<double>(latency.count);
        served += static_cast<double>(latency.count);
        per_worker.push_back(static_cast<double>(
            registry.counter("serve.requests_total").value()));
        const auto stats = state->workers[w]->cache().stats();
        hits += static_cast<double>(stats.hits);
        probes += static_cast<double>(stats.hits + stats.misses);
    }
    double requests = 0.0;
    for (const double n : per_worker)
        requests += n;
    for (const double n : per_worker)
        share_max = std::max(share_max, n / requests);
    report.add("serve.batch_size_mean", batched / batches, "count");
    report.add("serve.server_p50_us", weighted_p50 / served, "us");
    report.add("serve.rejected", rejected, "count");
    report.add("serve.cache_hit_rate", hits / probes, "ratio");
    report.add("serve.predict_p99_ms", reference_rate.p99, "ms");
    report.add("serve.max_rate_under_slo", maxRateUnderSlo(rates), "1/s");
    report.add("serve.samples_per_rate", static_cast<double>(per_rate),
               "count");
    double late_max = 0.0;
    for (const double late : reference_rate.late_ms)
        late_max = std::max(late_max, late);
    report.add("serve.generator_late_ms", late_max, "ms");
    report.add("cluster.worker_share_max", share_max, "ratio");
    report.add("router.retries_total",
               static_cast<double>(
                   state->router_registry.counter("router.retries_total")
                       .value()),
               "count");
    report.add("session.reuse_rate",
               total_paths == 0.0 ? 0.0 : reused / total_paths, "ratio");
    report.add("session.update_p50_ms", quantile(update_ms, 0.5), "ms");
    report.add("session.update_p99_ms", quantile(update_ms, 0.99), "ms");
    tracer.write(tracePath(args.workload));
    return report;
}

} // namespace snsbench
