#include "measure/datacollector.hh"

#include "common/logging.hh"

namespace quma::measure {

void
DataCollectionUnit::configure(std::size_t k)
{
    if (k == 0)
        fatal("DataCollectionUnit needs at least one bin");
    sums.assign(k, 0.0);
    bitSums.assign(k, 0.0);
    counts.assign(k, 0);
    bitCounts.assign(k, 0);
    count = 0;
    bitCount = 0;
    nextBin = 0;
    nextBitBin = 0;
}

void
DataCollectionUnit::addSample(double s)
{
    quma_assert(!sums.empty(), "DataCollectionUnit not configured");
    sums[nextBin] += s;
    ++counts[nextBin];
    ++count;
    if (++nextBin == sums.size())
        nextBin = 0;
}

void
DataCollectionUnit::addBit(bool bit)
{
    quma_assert(!bitSums.empty(), "DataCollectionUnit not configured");
    bitSums[nextBitBin] += bit ? 1.0 : 0.0;
    ++bitCounts[nextBitBin];
    ++bitCount;
    if (++nextBitBin == bitSums.size())
        nextBitBin = 0;
}

std::size_t
DataCollectionUnit::completedRounds() const
{
    if (sums.empty())
        return 0;
    return count / sums.size();
}

std::vector<double>
DataCollectionUnit::averages() const
{
    std::vector<double> out(sums.size(), 0.0);
    for (std::size_t i = 0; i < sums.size(); ++i)
        if (counts[i] > 0)
            out[i] = sums[i] / static_cast<double>(counts[i]);
    return out;
}

std::vector<double>
DataCollectionUnit::bitAverages() const
{
    std::vector<double> out(bitSums.size(), 0.0);
    for (std::size_t i = 0; i < bitSums.size(); ++i)
        if (bitCounts[i] > 0)
            out[i] = bitSums[i] / static_cast<double>(bitCounts[i]);
    return out;
}

void
DataCollectionUnit::clear()
{
    configure(sums.empty() ? 1 : sums.size());
}

void
DataCollectionUnit::reset()
{
    sums.clear();
    bitSums.clear();
    counts.clear();
    bitCounts.clear();
    count = 0;
    bitCount = 0;
    nextBin = 0;
    nextBitBin = 0;
}

} // namespace quma::measure
