//! The one ordered parallel sweep every workload driver runs its points on.
//!
//! A figure is a sweep of independent points (OSU message sizes, service
//! client counts, training model sizes, scenario-matrix cells), each its
//! own seeded simulation. [`run`] farms the points round-robin over scoped
//! threads and hands the results back in input order, so a driver prints
//! the same bytes for every shard count.

/// Apply `point` to every element of `points` on up to `shards` scoped
/// threads (clamped to `[1, points.len()]`) and return the results in
/// input order. Thread `k` runs points `k, k + shards, …`. A panicking
/// point propagates with its own payload once the other threads finish.
pub fn run<P, R, F>(points: &[P], shards: usize, point: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let shards = shards.clamp(1, points.len().max(1));
    if shards == 1 {
        return points.iter().map(point).collect();
    }
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|k| {
                let point = &point;
                scope.spawn(move || {
                    points
                        .iter()
                        .enumerate()
                        .skip(k)
                        .step_by(shards)
                        .map(|(i, p)| (i, point(p)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shard_count_matches_the_sequential_map() {
        let points: Vec<u64> = (0..7).map(|i| i * i + 3).collect();
        let want: Vec<(u64, u64)> = points.iter().map(|&p| (p, p * 31 % 17)).collect();
        let n = points.len();
        for shards in [1, 2, 3, n, n + 5] {
            assert_eq!(
                run(&points, shards, |&p| (p, p * 31 % 17)),
                want,
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn zero_shards_and_empty_input_run_sequentially() {
        assert_eq!(run(&[1, 2, 3], 0, |&p| p * 2), vec![2, 4, 6]);
        assert!(run(&[] as &[u32], 4, |&p| p).is_empty());
    }

    #[test]
    #[should_panic(expected = "point 4 failed")]
    fn a_panicking_point_propagates() {
        let points: Vec<u32> = (0..6).collect();
        run(&points, 3, |&p| {
            assert!(p != 4, "point {p} failed");
            p
        });
    }
}
