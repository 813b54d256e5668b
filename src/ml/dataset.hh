/**
 * @file
 * Regression datasets shared by all learners: the dense row-major
 * Dataset, and the BlockedDataset whose column blocks store each
 * distinct value row once.
 */

#ifndef GCM_ML_DATASET_HH
#define GCM_ML_DATASET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gcm::ml
{

/**
 * A fixed-width feature matrix with one scalar regression target per
 * row. Feature values are stored as float: the representations used in
 * this project (one-hot codes, layer parameters, latencies in ms) all
 * fit comfortably.
 */
class Dataset
{
  public:
    /** Create an empty dataset with a fixed feature width. */
    explicit Dataset(std::size_t num_features);

    /** Append a row. @pre x.size() == numFeatures() */
    void addRow(const std::vector<float> &x, double y);

    std::size_t numRows() const { return labels_.size(); }
    std::size_t numFeatures() const { return numFeatures_; }

    /** Pointer to the i-th row (numFeatures() floats). */
    const float *row(std::size_t i) const;

    double label(std::size_t i) const;
    const std::vector<double> &labels() const { return labels_; }

    /** Single feature value. */
    float at(std::size_t row_idx, std::size_t feature) const;

    /** Extract a row-subset dataset (feature names preserved). */
    Dataset subset(const std::vector<std::size_t> &row_indices) const;

    /** Optional feature names (for importances / debugging). */
    void setFeatureNames(std::vector<std::string> names);
    const std::vector<std::string> &featureNames() const
    {
        return featureNames_;
    }

  private:
    std::size_t numFeatures_;
    std::vector<float> values_;
    std::vector<double> labels_;
    std::vector<std::string> featureNames_;
};

/**
 * A run of columns whose values depend on a row only through the
 * row's key: `table` holds one row of `width` values per key, and
 * dataset row i reads table row `keys[i]`.
 */
struct ColumnBlock
{
    std::size_t width = 0;
    /** Value table, numKeys() rows of `width` floats, row-major. */
    std::vector<float> table;
    /** Table row of each dataset row. */
    std::vector<std::uint32_t> keys;

    std::size_t numKeys() const { return table.size() / width; }

    /** The `width` values of table row `key`. */
    const float *keyRow(std::uint32_t key) const
    {
        return table.data() + static_cast<std::size_t>(key) * width;
    }
};

/**
 * A regression dataset stored as column blocks. Row i is the
 * concatenation, in block order, of each block's table row for key i.
 * A (network ‖ device) training set is two blocks: its dense form
 * repeats every network's encoding once per device, this form stores
 * it once. toDense() gives the equivalent Dataset.
 */
class BlockedDataset
{
  public:
    /**
     * @pre every block has width > 0, a whole number of table rows,
     *      one key per label and every key inside its table.
     */
    BlockedDataset(std::vector<ColumnBlock> blocks,
                   std::vector<double> labels);

    std::size_t numRows() const { return labels_.size(); }
    std::size_t numFeatures() const { return numFeatures_; }

    const std::vector<ColumnBlock> &blocks() const { return blocks_; }
    const std::vector<double> &labels() const { return labels_; }

    /** The equivalent dense dataset (one materialized row per row). */
    Dataset toDense() const;

  private:
    std::vector<ColumnBlock> blocks_;
    std::vector<double> labels_;
    std::size_t numFeatures_ = 0;
};

} // namespace gcm::ml

#endif // GCM_ML_DATASET_HH
