#ifndef HASJ_DATA_IO_H_
#define HASJ_DATA_IO_H_

#include <cstdint>
#include <string>

#include "common/fault.h"
#include "common/status.h"
#include "data/dataset.h"
#include "geom/wkt.h"

namespace hasj::data {

// Input hardening caps for dataset loading (DESIGN.md §11): a dataset file
// is untrusted input, so the loader bounds line length, object count, and
// the per-polygon WKT limits before anything is allocated proportionally.
// Violations return kOutOfRange with the offending line number; 0 disables
// a cap.
struct LoadLimits {
  int64_t max_line_bytes = 16 << 20;  // one WKT polygon per line
  int64_t max_objects = 0;            // unlimited by default
  geom::WktLimits wkt;
  // Fault-injection hook (null = none): the kDatasetLoad site fires once
  // per loaded object, letting chaos tests exercise mid-load failures.
  FaultInjector* faults = nullptr;
};

// Plain-text dataset format: one WKT POLYGON per line; '#' lines are
// comments. Lets users run the pipelines on real data (e.g. shapefiles
// exported with ogr2ogr to WKT) instead of the synthetic profiles.
[[nodiscard]] Status SaveDataset(const Dataset& dataset, const std::string& path);
[[nodiscard]] Result<Dataset> LoadDataset(const std::string& path, std::string name = "",
                                          const LoadLimits& limits = {});

// Replaces `dataset`'s polygons with the file's contents, keeping its name
// and bumping its epoch (so interval caches keyed on the epoch
// rebuild instead of serving stale snapshots). All-or-nothing: the file is
// parsed into a scratch dataset first, and on any error `dataset` is left
// untouched.
[[nodiscard]] Status ReloadDatasetInPlace(const std::string& path, Dataset* dataset,
                                          const LoadLimits& limits = {});

}  // namespace hasj::data

#endif  // HASJ_DATA_IO_H_
