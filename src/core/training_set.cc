#include "core/training_set.hh"

#include <cmath>

#include "util/error.hh"

namespace gcm::core
{

double
signatureAnchor(const std::vector<double> &signature_latencies_ms)
{
    double log_sum = 0.0;
    for (double ms : signature_latencies_ms) {
        if (ms <= 0.0)
            fatal("signature latency must be positive, got ", ms);
        log_sum += std::log(ms);
    }
    return std::exp(log_sum
                    / static_cast<double>(signature_latencies_ms.size()));
}

namespace
{

ml::ColumnBlock
keyTable(const std::vector<std::vector<float>> &entries)
{
    GCM_ASSERT(!entries.empty(), "pairDataset: empty key table");
    ml::ColumnBlock block;
    block.width = entries[0].size();
    block.table.reserve(entries.size() * block.width);
    for (const auto &e : entries) {
        GCM_ASSERT(e.size() == block.width, "pairDataset: ragged table");
        block.table.insert(block.table.end(), e.begin(), e.end());
    }
    return block;
}

} // namespace

ml::BlockedDataset
pairDataset(const std::vector<std::vector<float>> &networks,
            const std::vector<std::vector<float>> &devices,
            const std::vector<PairRow> &rows)
{
    std::vector<ml::ColumnBlock> blocks{keyTable(networks),
                                        keyTable(devices)};
    std::vector<double> labels;
    labels.reserve(rows.size());
    blocks[0].keys.reserve(rows.size());
    blocks[1].keys.reserve(rows.size());
    for (const PairRow &r : rows) {
        blocks[0].keys.push_back(static_cast<std::uint32_t>(r.network));
        blocks[1].keys.push_back(static_cast<std::uint32_t>(r.device));
        labels.push_back(r.label);
    }
    return ml::BlockedDataset(std::move(blocks), std::move(labels));
}

std::vector<double>
predictPairs(const ml::FlatEnsemble &model, const ml::BlockedDataset &pairs)
{
    GCM_ASSERT(pairs.blocks().size() == 2,
               "predictPairs: expected a (network, device) dataset");
    const ml::ColumnBlock &net = pairs.blocks()[0];
    const ml::ColumnBlock &dev = pairs.blocks()[1];
    std::vector<ml::FlatEnsemble::SegmentedRow> rows(pairs.numRows());
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = {net.keyRow(net.keys[i]), dev.keyRow(dev.keys[i])};
    std::vector<double> out(rows.size());
    model.predictBatchSegmented(rows.data(), rows.size(), net.width,
                                out.data());
    return out;
}

} // namespace gcm::core
