#include "tpch/dataset_io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/properties.h"
#include "common/strings.h"

namespace dmr::tpch {

namespace fs = std::filesystem;

std::string PartitionFileName(int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "part-%05d.tbl", index);
  return buf;
}

Status WriteDatasetToDirectory(const MaterializedDataset& dataset,
                               const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create directory '" + dir +
                           "': " + ec.message());
  }
  if (fs::exists(fs::path(dir) / "MANIFEST")) {
    return Status::AlreadyExists("directory '" + dir +
                                 "' already holds a dataset");
  }

  for (size_t p = 0; p < dataset.partitions.size(); ++p) {
    fs::path path = fs::path(dir) / PartitionFileName(static_cast<int>(p));
    std::ofstream out(path);
    if (!out) {
      return Status::IoError("cannot open '" + path.string() +
                             "' for writing");
    }
    const ColumnarPartition& part = dataset.partitions[p];
    for (uint32_t row = 0; row < part.num_rows(); ++row) {
      out << SerializeRow(part.RowAt(row)) << '\n';
    }
    if (!out) {
      return Status::IoError("short write to '" + path.string() + "'");
    }
  }

  Properties manifest;
  manifest.SetInt("num_partitions",
                  static_cast<int64_t>(dataset.partitions.size()));
  manifest.Set("predicate.name", dataset.predicate.name);
  manifest.Set("predicate.sql", dataset.predicate.sql);
  manifest.SetDouble("predicate.zipf_z", dataset.predicate.zipf_z);
  for (size_t p = 0; p < dataset.matching_per_partition.size(); ++p) {
    manifest.SetInt("matching." + std::to_string(p),
                    static_cast<int64_t>(dataset.matching_per_partition[p]));
  }
  std::ofstream out(fs::path(dir) / "MANIFEST");
  if (!out) {
    return Status::IoError("cannot write MANIFEST in '" + dir + "'");
  }
  out << manifest.ToString();
  return out ? Status::OK()
             : Status::IoError("short write to MANIFEST in '" + dir + "'");
}

Result<ColumnarPartition> ReadPartitionFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  ColumnarPartition part;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Result<LineItemRow> row = ParseRow(line);
    Status appended = row.ok() ? part.AppendRow(*row) : row.status();
    if (!appended.ok()) {
      return Status::ParseError(path + ":" + std::to_string(line_no) + ": " +
                                appended.message());
    }
  }
  return part;
}

Result<MaterializedDataset> ReadDatasetFromDirectory(const std::string& dir) {
  std::ifstream manifest_in(fs::path(dir) / "MANIFEST");
  if (!manifest_in) {
    return Status::NotFound("no MANIFEST in '" + dir + "'");
  }
  std::string text((std::istreambuf_iterator<char>(manifest_in)),
                   std::istreambuf_iterator<char>());
  DMR_ASSIGN_OR_RETURN(Properties manifest, Properties::Parse(text));
  DMR_ASSIGN_OR_RETURN(int64_t num_partitions,
                       manifest.GetInt("num_partitions", -1));
  if (num_partitions < 0) {
    return Status::ParseError("MANIFEST lacks num_partitions");
  }
  // Each partition needs its own matching.<p> entry, so the count of
  // entries bounds what the reserves below may ask for.
  if (static_cast<uint64_t>(num_partitions) > manifest.size()) {
    return Status::ParseError("MANIFEST num_partitions " +
                              std::to_string(num_partitions) +
                              " exceeds its " +
                              std::to_string(manifest.size()) + " entries");
  }

  MaterializedDataset dataset;
  std::string pred_name = manifest.Get("predicate.name");
  for (const auto& pred : PredicateSuite()) {
    if (pred.name == pred_name) dataset.predicate = pred;
  }
  if (dataset.predicate.name != pred_name) {
    return Status::NotFound("MANIFEST predicate '" + pred_name +
                            "' is not in the predicate suite");
  }

  dataset.partitions.reserve(num_partitions);
  dataset.matching_per_partition.reserve(num_partitions);
  for (int p = 0; p < num_partitions; ++p) {
    DMR_ASSIGN_OR_RETURN(
        int64_t matching,
        manifest.GetInt("matching." + std::to_string(p), -1));
    if (matching < 0) {
      return Status::ParseError("MANIFEST lacks matching count for partition " +
                                std::to_string(p));
    }
    fs::path path = fs::path(dir) / PartitionFileName(p);
    DMR_ASSIGN_OR_RETURN(ColumnarPartition part,
                         ReadPartitionFile(path.string()));
    if (static_cast<uint64_t>(matching) > part.num_rows()) {
      return Status::ParseError(
          "MANIFEST matching count " + std::to_string(matching) +
          " exceeds the " + std::to_string(part.num_rows()) + " rows of " +
          path.string());
    }
    dataset.partitions.push_back(std::move(part));
    dataset.matching_per_partition.push_back(
        static_cast<uint64_t>(matching));
  }
  return dataset;
}

}  // namespace dmr::tpch
