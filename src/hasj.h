#ifndef HASJ_HASJ_H_
#define HASJ_HASJ_H_

// Umbrella header: the public API of the hardware-accelerated spatial
// selection and join library (reproduction of Sun, Agrawal, El Abbadi,
// SIGMOD 2003). See README.md for a guided tour.

#include "algo/point_in_polygon.h"
#include "algo/polygon_distance.h"
#include "algo/triangulate.h"
#include "algo/polygon_intersect.h"
#include "common/thread_pool.h"
#include "core/distance_join.h"
#include "core/distance_selection.h"
#include "core/hw_distance.h"
#include "core/hw_filled.h"
#include "core/hw_intersection.h"
#include "core/hw_nearest.h"
#include "core/join.h"
#include "core/refinement_executor.h"
#include "core/selection.h"
#include "data/catalogs.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/svg.h"
#include "filter/interior_filter.h"
#include "filter/object_filters.h"
#include "geom/box.h"
#include "geom/clip.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/segment.h"
#include "geom/wkt.h"
#include "index/rtree.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/report.h"
#include "obs/trace.h"

#endif  // HASJ_HASJ_H_
