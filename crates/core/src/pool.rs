//! The worker pool behind every parallel harness in the workspace.
//!
//! The frequency-sharded characterization, the bench experiment
//! matrices and the Table 2 suite all have the same shape: a fixed
//! number of independent cells, each booting its own machines from a
//! seed derived from the cell's identity, never from the worker that
//! runs it. [`run_indexed`] farms such cells over threads that claim
//! cell indices from one shared counter, and merges the results in
//! index order, so a parallel run returns exactly what the sequential
//! loop returns, for any worker count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Runs `cell(i)` for every `i` in `0..count` over `workers` threads
/// and returns the results in index order.
///
/// - The calling thread is one of the workers, so only `workers − 1`
///   threads are spawned, and `workers == 1` runs the plain sequential
///   loop without spawning anything.
/// - `workers` is clamped to `1..=count`: a count of 0 is served by the
///   calling thread alone.
/// - Machines and telemetry sinks are not `Send`, so a cell builds
///   whatever it boots itself; only its result crosses threads.
/// - Once a cell fails, no worker claims another cell. Cells are
///   claimed in index order, so every cell below the failing one was
///   already claimed and runs to completion, and the error returned is
///   the first one in index order — the one the sequential loop
///   returns.
/// - A panic in a cell propagates to the caller.
///
/// # Errors
///
/// Returns the first error in index order.
///
/// # Examples
///
/// ```
/// use plugvolt::pool::run_indexed;
///
/// let squares = run_indexed(3, 5, |i| Ok::<_, ()>(i * i));
/// assert_eq!(squares, Ok(vec![0, 1, 4, 9, 16]));
/// ```
pub fn run_indexed<T, E>(
    workers: usize,
    count: usize,
    cell: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
{
    let workers = workers.clamp(1, count.max(1));
    // Both atomics only steer which cells get claimed; results travel
    // back through `join`, which orders them after the workers' writes,
    // so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let result = cell(i);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((i, result));
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    // Every index below the first failure is present, so in index order
    // the first `Err` is the lowest failing cell's.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell whose cost varies with its index, so workers finish out of
    /// order.
    fn uneven(i: usize) -> u64 {
        (0..(i % 5) * 1_000).fold(i as u64, |acc, k| {
            acc.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(k as u64)
        })
    }

    #[test]
    fn any_worker_count_gives_the_sequential_vector() {
        let sequential: Vec<u64> = (0..23).map(uneven).collect();
        // 1, 2 and 7 workers, and more workers than cells.
        for workers in [1, 2, 7, 64] {
            let pooled = run_indexed(workers, 23, |i| Ok::<_, ()>(uneven(i)));
            assert_eq!(pooled, Ok(sequential.clone()), "workers = {workers}");
        }
    }

    #[test]
    fn zero_cells_give_an_empty_vector_and_zero_workers_clamp_to_one() {
        assert_eq!(run_indexed(4, 0, Ok::<_, ()>), Ok(vec![]));
        assert_eq!(run_indexed(0, 3, Ok::<_, ()>), Ok(vec![0, 1, 2]));
    }

    #[test]
    fn first_error_in_index_order_wins_even_when_a_later_cell_fails_first() {
        // Cell 1 fails only once cell 3 is failing, so the later failure
        // reaches the pool first and cell 1's error must still win.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let rx = std::sync::Mutex::new(rx);
        let result = run_indexed(4, 4, |i| match i {
            1 => {
                rx.lock()
                    .expect("no cell panics while holding the receiver")
                    .recv()
                    .expect("cell 3 signals after failing");
                Err(i)
            }
            3 => {
                tx.send(()).expect("cell 1 is waiting");
                Err(i)
            }
            _ => Ok(i),
        });
        assert_eq!(result, Err(1));
    }

    #[test]
    fn the_sequential_path_stops_at_the_first_failure() {
        let ran = AtomicUsize::new(0);
        let result = run_indexed(1, 10, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 2 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        assert_eq!(result, Err(2));
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }
}
