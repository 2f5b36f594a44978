/**
 * @file
 * Micro-benchmarks of the PR 7 event-engine hot paths: the
 * hierarchical timing wheel's pop/re-register cycle against the
 * poll-every-component scan it replaced, at 1/4/8/16 registered
 * sources. Prints a fixed-width table and, with `--json <path>`,
 * writes machine-readable metrics per docs/benchmarks.md.
 *
 * `--smoke` runs every case exactly once (no timing claims): the
 * perf_smoke ctest label uses it to catch bit-rot in Debug builds.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.hh"
#include "timing/wheel.hh"

using namespace quma;

namespace {

bool g_smoke = false;
volatile double benchmarkSink = 0.0;

/** Mean ns/op over enough iterations to fill a small time budget. */
template <class F>
double
timeNs(F &&body, std::size_t iters)
{
    if (g_smoke)
        iters = 1;
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i)
        body();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(iters);
}

/**
 * Steady-state wheel traffic: `sources` registered sources with
 * staggered periods; each pop re-registers every fired source one
 * period later, exactly the QumaMachine run-loop's access pattern.
 * Reported per dispatched event.
 */
double
wheelDispatchNs(unsigned sources, std::size_t events)
{
    timing::EventWheel w(sources);
    std::vector<Cycle> period(sources);
    for (unsigned s = 0; s < sources; ++s) {
        // Mixed cadences spanning level-0 and level-1 placement.
        period[s] = 4 + 37 * (s % 7) + (s % 3) * 4000;
        w.schedule(s, period[s]);
    }
    std::size_t fired = 0;
    auto t0 = std::chrono::steady_clock::now();
    while (fired < events) {
        auto p = w.popEarliest();
        std::uint64_t m = p->sources;
        Cycle now = p->cycle;
        while (m != 0) {
            auto s = static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            w.schedule(s, now + period[s]);
            ++fired;
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    benchmarkSink = static_cast<double>(w.cursor());
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(fired);
}

/**
 * The replaced scheme for reference: a linear scan over every
 * source's next-due cycle per step, O(sources) per dispatch.
 */
double
pollScanNs(unsigned sources, std::size_t events)
{
    std::vector<Cycle> due(sources), period(sources);
    for (unsigned s = 0; s < sources; ++s) {
        period[s] = 4 + 37 * (s % 7) + (s % 3) * 4000;
        due[s] = period[s];
    }
    std::size_t fired = 0;
    auto t0 = std::chrono::steady_clock::now();
    while (fired < events) {
        Cycle best = due[0];
        for (unsigned s = 1; s < sources; ++s)
            best = std::min(best, due[s]);
        for (unsigned s = 0; s < sources; ++s)
            if (due[s] == best) {
                due[s] = best + period[s];
                ++fired;
            }
    }
    auto t1 = std::chrono::steady_clock::now();
    benchmarkSink = static_cast<double>(due[0]);
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(fired);
}

void
benchDispatch(bench::JsonReport &json)
{
    bench::banner("next-event dispatch (wheel vs poll scan)");
    std::size_t events = g_smoke ? 64 : 4'000'000;
    for (unsigned sources : {1u, 4u, 8u, 16u}) {
        double wheel = wheelDispatchNs(sources, events);
        double poll = pollScanNs(sources, events);
        std::printf("dispatch %2u sources: wheel %7.1f ns/event "
                    "(%8.2f Mev/s)   poll %7.1f ns/event\n",
                    sources, wheel, 1e3 / wheel, poll);
        std::string tag = std::to_string(sources) + "_sources";
        json.metric("wheel_dispatch_" + tag, wheel, "ns/event");
        json.metric("wheel_dispatch_rate_" + tag, 1e9 / wheel,
                    "events/s");
        json.metric("poll_dispatch_" + tag, poll, "ns/event");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    g_smoke = bench::argFlag(argc, argv, "--smoke");
    std::string jsonPath = bench::argValue(argc, argv, "--json");

    bench::JsonReport json("event_engine");
    if (g_smoke)
        std::printf("(smoke mode: single iteration, timings "
                    "meaningless)\n");

    benchDispatch(json);
    bench::rule();

    return json.writeTo(jsonPath) ? 0 : 1;
}
