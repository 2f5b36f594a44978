/**
 * @file
 * Data collection unit (paper §7.1): accumulates K consecutive
 * integration results per round over N rounds and produces the
 * per-bin averages
 *
 *     S_bar_i = (sum_j S_{i,j}) / N,  i in {0 .. K-1}.
 *
 * For AllXY, K = 42 (21 gate pairs measured twice) and N = 25600.
 */

#ifndef QUMA_MEASURE_DATACOLLECTOR_HH
#define QUMA_MEASURE_DATACOLLECTOR_HH

#include <cstddef>
#include <vector>

namespace quma::measure {

class DataCollectionUnit
{
  public:
    /** Configure for K bins; resets any collected data. */
    void configure(std::size_t k);

    std::size_t numBins() const { return sums.size(); }

    /**
     * Record one integration result. Results are assigned to bins
     * round-robin: sample m lands in bin m % K.
     */
    void addSample(double s);

    /** Samples recorded so far. */
    std::size_t sampleCount() const { return count; }

    /** Completed rounds (each round is K samples). */
    std::size_t completedRounds() const;

    /** Per-bin averages over the rounds recorded so far. */
    std::vector<double> averages() const;

    /** Per-bin averages of the BINARY results, if also recorded. */
    void addBit(bool bit);
    std::vector<double> bitAverages() const;

    // Raw accumulator access: the runtime's shard merge re-sums
    // per-round sums in global round order (bit-identical for any
    // round partition), so it needs the sums before the division.
    const std::vector<double> &binSums() const { return sums; }
    const std::vector<std::size_t> &binCounts() const { return counts; }
    const std::vector<double> &bitBinSums() const { return bitSums; }
    const std::vector<std::size_t> &bitBinCounts() const
    {
        return bitCounts;
    }

    void clear();

    /** Return to the unconfigured (freshly-constructed) state. */
    void reset();

  private:
    std::vector<double> sums;
    std::vector<double> bitSums;
    std::vector<std::size_t> counts;
    std::vector<std::size_t> bitCounts;
    std::size_t count = 0;
    std::size_t bitCount = 0;
    /** The bins the next sample and bit land in: count % K and
     *  bitCount % K, kept as cursors so a sample costs no division. */
    std::size_t nextBin = 0;
    std::size_t nextBitBin = 0;
};

} // namespace quma::measure

#endif // QUMA_MEASURE_DATACOLLECTOR_HH
