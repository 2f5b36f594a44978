/**
 * @file
 * Reproduces the coherence-time experiments of paper §8: T1, T2*
 * (Ramsey with artificial detuning) and T2 echo, all through the
 * full microarchitecture, with fits against the configured chip
 * parameters.
 *
 * Ends with configured against fitted T1, echo T2 and Ramsey fringe
 * frequency. At kBandRounds rounds per point or more it exits 1 when
 * a fit leaves its band; fewer rounds (the perf_smoke run uses 16)
 * print the table without the check, since shot noise then swamps
 * the fits.
 *
 * Environment: QUMA_COHERENCE_ROUNDS overrides rounds per point
 * (default kBandRounds).
 */

#include <cmath>
#include <cstdio>

#include "bench/report.hh"
#include "experiments/coherence.hh"

using namespace quma;
using namespace quma::experiments;

namespace {

/**
 * Rounds per point from which the fits are held to their bands. At
 * 4096 rounds one point's P(|1>) carries about 0.008 of shot noise,
 * and the 12- and 60-point fits land within 4% of the configured
 * values (T1 30.0 us, echo 24.2 us, fringe 249.2 kHz); at 256 rounds
 * T1 and the echo read 33.8 and 47.8 us.
 */
constexpr std::size_t kBandRounds = 4096;

/** One fitted quantity against the value the chip was configured
 *  with, and the relative band it must fall in. */
struct Check
{
    const char *name;
    double configured;
    double fitted;
    double band;

    bool inBand() const
    {
        return std::abs(fitted - configured) <= band * configured;
    }
};

void
printSweep(const char *name, const std::vector<double> &delays,
           const std::vector<double> &population)
{
    std::printf("%s\n", name);
    std::printf("%-12s %-10s %s\n", "tau (ns)", "P(|1>)", "plot");
    bench::rule(60);
    for (std::size_t i = 0; i < delays.size(); ++i) {
        int stars = static_cast<int>(population[i] * 40.0 + 0.5);
        stars = std::max(0, std::min(stars, 44));
        std::printf("%-12.0f %-10.4f |%.*s\n", delays[i],
                    population[i], stars,
                    "********************************************");
    }
    bench::rule(60);
}

} // namespace

int
main()
{
    std::size_t rounds =
        bench::envSize("QUMA_COHERENCE_ROUNDS", kBandRounds);
    bench::banner("Section 8 coherence experiments (N = " +
                  std::to_string(rounds) + " per point)");

    qsim::TransmonParams chip = qsim::paperQubitParams();
    chip.t1Ns = 30000.0;
    chip.t2Ns = 25000.0;
    chip.quasiStaticDetuningSigmaHz = 20.0e3;

    // ------------------------------------------------------------ T1
    CoherenceConfig t1cfg = CoherenceConfig::withLinearSweep(90000, 12);
    t1cfg.rounds = rounds;
    t1cfg.qubitParams = chip;
    auto t1 = runT1(t1cfg);
    printSweep("T1 relaxation: X180 - wait - measure", t1.delaysNs,
               t1.population);
    std::printf("fitted T1 = %.1f us  [configured: %.1f us]\n\n",
                t1.fit.tau * 1e-3, chip.t1Ns * 1e-3);

    // -------------------------------------------------------- Ramsey
    // Three fringes of the 250 kHz detuning fit inside the 12 us
    // sweep before the 20 kHz quasi-static envelope dies, so the fit
    // reads the programmed frequency, sampled 20 times per fringe.
    CoherenceConfig ramseyCfg;
    for (int i = 1; i <= 60; ++i)
        ramseyCfg.delaysCycles.push_back(static_cast<Cycle>(i) * 40);
    ramseyCfg.rounds = rounds;
    ramseyCfg.qubitParams = chip;
    ramseyCfg.artificialDetuningHz = 250.0e3;
    auto ramsey = runRamsey(ramseyCfg);
    char title[80];
    std::snprintf(title, sizeof title,
                  "T2* Ramsey: X90 - wait - X90 (%.0f kHz artificial "
                  "detuning)",
                  ramseyCfg.artificialDetuningHz * 1e-3);
    printSweep(title, ramsey.delaysNs, ramsey.population);
    std::printf("fitted fringe: %.1f kHz [programmed %.1f kHz], "
                "envelope T2* = %.1f us\n\n",
                ramsey.fit.frequency * 1e9 * 1e-3,
                ramseyCfg.artificialDetuningHz * 1e-3,
                ramsey.fit.tau * 1e-3);

    // ---------------------------------------------------------- Echo
    CoherenceConfig echoCfg = CoherenceConfig::withLinearSweep(48000, 12);
    echoCfg.rounds = rounds;
    echoCfg.qubitParams = chip;
    auto echo = runEcho(echoCfg);
    printSweep("T2 echo: X90 - tau/2 - X180 - tau/2 - Xm90",
               echo.delaysNs, echo.population);
    std::printf("fitted echo decay = %.1f us  [configured Markovian "
                "T2 = %.1f us; the echo\nrefocuses the %.0f kHz "
                "quasi-static noise that shortens the Ramsey "
                "envelope]\n",
                echo.fit.tau * 1e-3, chip.t2Ns * 1e-3,
                chip.quasiStaticDetuningSigmaHz * 1e-3);

    // ------------------------------------------------------- summary
    // The echo refocuses the quasi-static noise, so its decay is the
    // Markovian T2; the fringe is the programmed artificial detuning.
    const Check checks[] = {
        {"T1 (us)", chip.t1Ns * 1e-3, t1.fit.tau * 1e-3, 0.10},
        {"echo T2 (us)", chip.t2Ns * 1e-3, echo.fit.tau * 1e-3, 0.10},
        {"Ramsey fringe (kHz)", ramseyCfg.artificialDetuningHz * 1e-3,
         ramsey.fit.frequency * 1e9 * 1e-3, 0.02},
    };
    const bool enforced = rounds >= kBandRounds;
    std::printf("\n%-20s %12s %12s %8s  %s\n", "quantity", "configured",
                "fitted", "band", "verdict");
    bench::rule(66);
    bool allInBand = true;
    for (const Check &c : checks) {
        allInBand = allInBand && c.inBand();
        std::printf("%-20s %12.1f %12.1f %7.0f%%  %s\n", c.name,
                    c.configured, c.fitted, c.band * 100.0,
                    c.inBand() ? "in band" : "OUT OF BAND");
    }
    bench::rule(66);
    if (!enforced) {
        std::printf("bands not enforced below %zu rounds per point\n",
                    kBandRounds);
        return 0;
    }
    return allInBand ? 0 : 1;
}
