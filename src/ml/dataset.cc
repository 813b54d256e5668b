#include "ml/dataset.hh"

#include <algorithm>

#include "util/error.hh"

namespace gcm::ml
{

Dataset::Dataset(std::size_t num_features) : numFeatures_(num_features)
{
    GCM_ASSERT(num_features > 0, "Dataset: zero features");
}

void
Dataset::addRow(const std::vector<float> &x, double y)
{
    GCM_ASSERT(x.size() == numFeatures_, "Dataset::addRow: width mismatch");
    values_.insert(values_.end(), x.begin(), x.end());
    labels_.push_back(y);
}

const float *
Dataset::row(std::size_t i) const
{
    GCM_ASSERT(i < numRows(), "Dataset::row: index out of range");
    return values_.data() + i * numFeatures_;
}

double
Dataset::label(std::size_t i) const
{
    GCM_ASSERT(i < numRows(), "Dataset::label: index out of range");
    return labels_[i];
}

float
Dataset::at(std::size_t row_idx, std::size_t feature) const
{
    GCM_ASSERT(feature < numFeatures_, "Dataset::at: feature out of range");
    return row(row_idx)[feature];
}

Dataset
Dataset::subset(const std::vector<std::size_t> &row_indices) const
{
    Dataset out(numFeatures_);
    out.featureNames_ = featureNames_;
    out.values_.reserve(row_indices.size() * numFeatures_);
    out.labels_.reserve(row_indices.size());
    for (std::size_t i : row_indices) {
        GCM_ASSERT(i < numRows(), "Dataset::subset: index out of range");
        const float *r = row(i);
        out.values_.insert(out.values_.end(), r, r + numFeatures_);
        out.labels_.push_back(labels_[i]);
    }
    return out;
}

void
Dataset::setFeatureNames(std::vector<std::string> names)
{
    GCM_ASSERT(names.size() == numFeatures_,
               "Dataset::setFeatureNames: size mismatch");
    featureNames_ = std::move(names);
}

BlockedDataset::BlockedDataset(std::vector<ColumnBlock> blocks,
                               std::vector<double> labels)
    : blocks_(std::move(blocks)), labels_(std::move(labels))
{
    GCM_ASSERT(!blocks_.empty(), "BlockedDataset: no blocks");
    for (const ColumnBlock &b : blocks_) {
        GCM_ASSERT(b.width > 0 && b.table.size() % b.width == 0,
                   "BlockedDataset: ragged block table");
        GCM_ASSERT(b.keys.size() == labels_.size(),
                   "BlockedDataset: one key per row required");
        for (std::uint32_t k : b.keys)
            GCM_ASSERT(k < b.numKeys(), "BlockedDataset: key out of range");
        numFeatures_ += b.width;
    }
}

Dataset
BlockedDataset::toDense() const
{
    Dataset out(numFeatures_);
    std::vector<float> row(numFeatures_);
    for (std::size_t i = 0; i < numRows(); ++i) {
        float *dst = row.data();
        for (const ColumnBlock &b : blocks_) {
            const float *src = b.keyRow(b.keys[i]);
            dst = std::copy(src, src + b.width, dst);
        }
        out.addRow(row, labels_[i]);
    }
    return out;
}

} // namespace gcm::ml
