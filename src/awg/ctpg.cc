#include "awg/ctpg.hh"

#include "common/logging.hh"

namespace quma::awg {

Ctpg::Ctpg(CtpgConfig config)
    : cfg(config),
      dac(config.dacBits, config.dacFullScale, kAwgSampleRateHz)
{}

void
Ctpg::trigger(Codeword cw, Cycle td, QubitMask mask)
{
    if (!memory.contains(cw))
        fatal("CTPG triggered with codeword ", cw,
              " but no pulse is uploaded at that index");
    pending.push(Pending{td + cfg.delayCycles, cw, mask, orderCounter++});
}

std::optional<Cycle>
Ctpg::nextEventCycle() const
{
    if (pending.empty())
        return std::nullopt;
    return pending.top().emitCycle;
}

const Ctpg::Rendered &
Ctpg::rendered(Codeword cw)
{
    if (renderCacheVersion != memory.version()) {
        renderCache.clear();
        renderCacheVersion = memory.version();
    }
    auto it = renderCache.find(cw);
    if (it == renderCache.end()) {
        const StoredPulse &stored = memory.lookup(cw);
        it = renderCache
                 .emplace(cw, Rendered{dac.render(stored.i),
                                       dac.render(stored.q)})
                 .first;
    }
    return it->second;
}

void
Ctpg::advanceTo(Cycle now)
{
    while (!pending.empty() && pending.top().emitCycle <= now) {
        Pending p = pending.top();
        pending.pop();
        const Rendered &r = rendered(p.cw);

        // The emitted pulse is assembled in a reused member so the
        // sample copies land in already-sized vectors: steady-state
        // triggers perform no heap allocation.
        emitPulse.t0Ns = cyclesToNs(p.emitCycle);
        emitPulse.i = r.i;
        emitPulse.q = r.q;
        emitPulse.ssbHz = cfg.ssbHz;
        emitPulse.carrierHz = cfg.carrierHz;
        ++emitted;
        if (pulseSink)
            pulseSink(emitPulse, p.cw, p.mask);
    }
}

void
Ctpg::reset()
{
    pending.clear();
    orderCounter = 0;
    emitted = 0;
}

} // namespace quma::awg
