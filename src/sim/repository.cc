#include "sim/repository.hh"

#include <cmath>
#include <limits>

#include "util/csv.hh"
#include "util/error.hh"
#include "util/json.hh"

namespace gcm::sim
{

bool
MeasurementRepository::validRecord(const MeasurementRecord &record)
{
    return std::isfinite(record.mean_ms) && record.mean_ms > 0.0
        && record.mean_ms < kMaxPlausibleMs
        && std::isfinite(record.stddev_ms) && record.stddev_ms >= 0.0
        && record.runs > 0;
}

void
MeasurementRepository::add(MeasurementRecord record)
{
    if (!validRecord(record)) {
        fatal("repository: rejecting invalid upload for device ",
              record.device_id, " network '", record.network,
              "' (mean ", record.mean_ms, " ms, stddev ",
              record.stddev_ms, " ms, ", record.runs, " runs)");
    }
    if (isQuarantined(record.device_id)) {
        fatal("repository: device ", record.device_id,
              " is quarantined and cannot contribute");
    }
    const auto key = std::make_pair(record.device_id, record.network);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        records_[it->second] = std::move(record);
        return;
    }
    index_.emplace(key, records_.size());
    records_.push_back(std::move(record));
}

void
MeasurementRepository::quarantine(std::int32_t device_id)
{
    quarantined_.insert(device_id);
}

bool
MeasurementRepository::isQuarantined(std::int32_t device_id) const
{
    return quarantined_.count(device_id) > 0;
}

bool
MeasurementRepository::has(std::int32_t device_id,
                           const std::string &network) const
{
    return index_.count(std::make_pair(device_id, network)) > 0;
}

double
MeasurementRepository::latencyMs(std::int32_t device_id,
                                 const std::string &network) const
{
    const auto it = index_.find(std::make_pair(device_id, network));
    if (it == index_.end()) {
        fatal("repository: no measurement for device ", device_id,
              " network '", network, "'");
    }
    return records_[it->second].mean_ms;
}

std::vector<std::vector<double>>
MeasurementRepository::latencyMatrix(
    const std::vector<std::int32_t> &device_ids,
    const std::vector<std::string> &networks) const
{
    std::vector<std::vector<double>> m(
        networks.size(), std::vector<double>(device_ids.size(), 0.0));
    for (std::size_t n = 0; n < networks.size(); ++n) {
        for (std::size_t d = 0; d < device_ids.size(); ++d)
            m[n][d] = latencyMs(device_ids[d], networks[n]);
    }
    return m;
}

std::vector<std::vector<double>>
MeasurementRepository::sparseLatencyMatrix(
    const std::vector<std::int32_t> &device_ids,
    const std::vector<std::string> &networks) const
{
    std::vector<std::vector<double>> m(
        networks.size(),
        std::vector<double>(device_ids.size(),
                            std::numeric_limits<double>::quiet_NaN()));
    for (std::size_t n = 0; n < networks.size(); ++n) {
        for (std::size_t d = 0; d < device_ids.size(); ++d) {
            const auto it = index_.find(
                std::make_pair(device_ids[d], networks[n]));
            if (it != index_.end())
                m[n][d] = records_[it->second].mean_ms;
        }
    }
    return m;
}

std::size_t
MeasurementRepository::missingCells(
    const std::vector<std::int32_t> &device_ids,
    const std::vector<std::string> &networks) const
{
    std::size_t missing = 0;
    for (const auto &net : networks) {
        for (std::int32_t id : device_ids) {
            if (!has(id, net))
                ++missing;
        }
    }
    return missing;
}

namespace
{

double
parseLatencyField(const std::string &field, const char *column,
                  std::size_t row)
{
    std::size_t consumed = 0;
    double v = 0.0;
    try {
        v = std::stod(field, &consumed);
    } catch (const std::exception &) {
        fatal("repository CSV row ", row, ": ", column, " '", field,
              "' is not a number");
    }
    if (consumed != field.size())
        fatal("repository CSV row ", row, ": ", column, " '", field,
              "' has trailing garbage");
    return v;
}

std::int32_t
parseIntField(const std::string &field, const char *column,
              std::size_t row)
{
    try {
        return static_cast<std::int32_t>(std::stol(field));
    } catch (const std::exception &) {
        fatal("repository CSV row ", row, ": ", column, " '", field,
              "' is not an integer");
    }
}

} // namespace

std::string
MeasurementRepository::toCsv() const
{
    CsvDocument doc;
    doc.header = {"device_id", "device", "network", "mean_ms",
                  "stddev_ms", "runs"};
    for (const auto &r : records_) {
        doc.rows.push_back({std::to_string(r.device_id), r.device_name,
                            r.network, json::formatNumber(r.mean_ms),
                            json::formatNumber(r.stddev_ms),
                            std::to_string(r.runs)});
    }
    return gcm::toCsv(doc);
}

MeasurementRepository
MeasurementRepository::fromCsv(const std::string &text)
{
    const CsvDocument doc = parseCsv(text);
    const std::size_t c_id = doc.columnIndex("device_id");
    const std::size_t c_dev = doc.columnIndex("device");
    const std::size_t c_net = doc.columnIndex("network");
    const std::size_t c_mean = doc.columnIndex("mean_ms");
    const std::size_t c_std = doc.columnIndex("stddev_ms");
    const std::size_t c_runs = doc.columnIndex("runs");
    MeasurementRepository repo;
    for (std::size_t i = 0; i < doc.rows.size(); ++i) {
        const auto &row = doc.rows[i];
        MeasurementRecord r;
        r.device_id = parseIntField(row[c_id], "device_id", i);
        r.device_name = row[c_dev];
        r.network = row[c_net];
        r.mean_ms = parseLatencyField(row[c_mean], "mean_ms", i);
        r.stddev_ms = parseLatencyField(row[c_std], "stddev_ms", i);
        r.runs = parseIntField(row[c_runs], "runs", i);
        if (!validRecord(r)) {
            fatal("repository CSV row ", i,
                  ": invalid latency for device ", r.device_id,
                  " network '", r.network, "' (mean ", r.mean_ms,
                  " ms, stddev ", r.stddev_ms, " ms, ", r.runs,
                  " runs)");
        }
        repo.add(std::move(r));
    }
    return repo;
}

} // namespace gcm::sim
