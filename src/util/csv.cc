#include "util/csv.hh"

#include <fstream>
#include <sstream>

#include "util/error.hh"

namespace gcm
{

std::size_t
CsvDocument::columnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < header.size(); ++i) {
        if (header[i] == name)
            return i;
    }
    fatal("CSV column not found: ", name);
}

std::vector<std::string>
parseCsvLine(const std::string &line)
{
    std::vector<std::string> fields;
    std::string cur;
    bool in_quotes = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cur.push_back('"');
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push_back(c);
            }
        } else if (c == '"') {
            in_quotes = true;
        } else if (c == ',') {
            fields.push_back(cur);
            cur.clear();
        } else if (c != '\r') {
            cur.push_back(c);
        }
    }
    if (in_quotes)
        fatal("unterminated quote in CSV line: ", line);
    fields.push_back(cur);
    return fields;
}

std::string
escapeCsvField(const std::string &field)
{
    bool needs_quote = field.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quote)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out.push_back('"');
    return out;
}

CsvDocument
parseCsv(const std::string &text)
{
    CsvDocument doc;
    std::istringstream iss(text);
    std::string line;
    while (std::getline(iss, line)) {
        if (line.empty())
            continue;
        auto fields = parseCsvLine(line);
        // A non-empty line has at least one field, so an empty header
        // means this is the first line.
        if (doc.header.empty()) {
            doc.header = std::move(fields);
        } else {
            if (fields.size() != doc.header.size()) {
                fatal("CSV row has ", fields.size(), " fields, expected ",
                      doc.header.size());
            }
            doc.rows.push_back(std::move(fields));
        }
    }
    return doc;
}

CsvDocument
readCsvFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open CSV file for reading: ", path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return parseCsv(oss.str());
}

std::string
toCsv(const CsvDocument &doc)
{
    std::ostringstream oss;
    auto emit_row = [&oss](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                oss << ',';
            oss << escapeCsvField(row[i]);
        }
        oss << '\n';
    };
    emit_row(doc.header);
    for (const auto &row : doc.rows)
        emit_row(row);
    return oss.str();
}

void
writeCsvFile(const std::string &path, const CsvDocument &doc)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open CSV file for writing: ", path);
    out << toCsv(doc);
    if (!out)
        fatal("failed writing CSV file: ", path);
}

} // namespace gcm
