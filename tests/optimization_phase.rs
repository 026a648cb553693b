//! The optimization phase of CEGIS searches once: its cost-bounded query
//! returns every example-matching program that costs no more than the
//! cheapest correct one, and the loop replays its counter-examples over
//! that list instead of searching again after each one.

use porcupine::cegis::synthesize;
use porcupine_kernels::reduction;
use test_support::{fast_synthesis_options, with_jobs};

/// On hamming-distance the cheapest program matching phase 2's examples is
/// wrong, so the loop needs a counter-example before it reaches the
/// optimum; the replay finds both in one search, at one or two workers.
/// Counted per call: the process-wide `search_invocations` also counts
/// whatever other tests search meanwhile.
#[test]
fn hamming_distance_optimizes_with_one_search() {
    let k = reduction::hamming_distance(4);
    for jobs in [1, 2] {
        let options = with_jobs(fast_synthesis_options(), jobs);
        let r = synthesize(&k.spec, &k.sketch, &options).expect("hamming synthesizes");
        let case = format!("jobs={jobs}");
        assert_eq!(r.optimization_searches, 1, "{case}");
        assert!(r.proved_optimal, "{case}");
        assert!(r.examples_used >= 2, "{case}");
    }
}
