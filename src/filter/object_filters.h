#ifndef HASJ_FILTER_OBJECT_FILTERS_H_
#define HASJ_FILTER_OBJECT_FILTERS_H_

#include "geom/box.h"
#include "geom/polygon.h"

namespace hasj::filter {

// Distance upper-bound filters for the within-distance join (Chan [4]).
// Both return an upper bound U on the distance between the two objects;
// U <= D identifies the pair as a definite positive, skipping geometry
// comparison. Neither can produce a false positive.

// 0-Object filter: uses only the two MBRs. Since an object touches every
// side of its own MBR, min over side pairs of the max side-to-side distance
// bounds the object distance from above.
double ZeroObjectUpperBound(const geom::Box& a, const geom::Box& b);

// 1-Object filter: retrieves the actual geometry of one object (the paper
// uses the larger one) and bounds the distance against the other object's
// MBR: U = min over the MBR's sides s of max_{q in s} dist(q, boundary of
// p). The inner max is over-estimated with the 1-Lipschitz bound
// max <= max_i dist(sample_i, p) + gap/2, which keeps U a valid upper bound
// (DESIGN.md "Substitutions"); `samples_per_side` trades filter selectivity
// for cost.
double OneObjectUpperBound(const geom::Polygon& p, const geom::Box& other_mbr,
                           int samples_per_side = 5);

// The 1-Object filter's decision, exactly OneObjectUpperBound(p, mbr,
// samples_per_side) <= d, at the price of the decision: a side passes when
// every sample does, a sample passes at its first strided edge with
// fl(dist + gap/2) <= d, a side fails at its first failing sample, and the
// call returns at the first passing side. Exact because IEEE addition is
// monotone: fl(max_i a_i + h) = max_i fl(a_i + h) and
// fl(min_e x_e + h) = min_e fl(x_e + h), so the bound's value never has to
// be computed.
bool OneObjectWithin(const geom::Polygon& p, const geom::Box& other_mbr,
                     double d, int samples_per_side = 5);

}  // namespace hasj::filter

#endif  // HASJ_FILTER_OBJECT_FILTERS_H_
