//! The tiled, unrolled, chunk-scheduled execution engine.

use std::time::Instant;

use stencil_model::{GridSize, StencilInstance, TuningVector};

use crate::grid::Grid;
use crate::kernels::StencilFn;
use crate::pool::ThreadPool;
use crate::tiles::{Tile, TileGrid};

/// Measurement protocol: warmup runs followed by timed repetitions; the
/// median is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureConfig {
    /// Untimed warmup sweeps.
    pub warmup: u32,
    /// Timed sweeps (median reported).
    pub reps: u32,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig { warmup: 1, reps: 3 }
    }
}

/// Copyable index arithmetic of an output grid, captured before its buffer
/// is handed to the workers.
#[derive(Debug, Clone, Copy)]
struct Indexer {
    row: usize,
    plane: usize,
    hx: usize,
    hy: usize,
    hz: usize,
}

impl Indexer {
    fn of<T: Copy + Default>(g: &Grid<T>) -> Self {
        let (nx, _, _) = g.extent();
        let (hx, hy, hz) = g.halo();
        let row = nx + 2 * hx;
        let (_, ny, _) = g.extent();
        let plane = row * (ny + 2 * hy);
        Indexer { row, plane, hx, hy, hz }
    }

    #[inline]
    fn index(&self, x: usize, y: usize, z: usize) -> usize {
        (z + self.hz) * self.plane + (y + self.hy) * self.row + (x + self.hx)
    }
}

/// A raw pointer that may cross thread boundaries. Safety rests on the
/// engine writing each output point from exactly one tile and tiles being
/// disjoint (guaranteed by [`TileGrid`] and asserted in its tests).
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// The execution engine: an owned thread pool plus the blocked/unrolled
/// sweep.
///
/// ```
/// use stencil_exec::{Engine, Grid, WeightedKernel};
/// use stencil_model::{DType, TuningVector};
///
/// // out[p] = (in[p-x] + in[p+x]) / 2, on a 16x8 plane with 4 threads.
/// let kernel = WeightedKernel::new(
///     "avg-x",
///     vec![(-1, 0, 0, 0, 0.5), (1, 0, 0, 0, 0.5)],
///     1,
///     DType::F64,
/// ).unwrap();
/// let mut input: Grid<f64> = Grid::new(16, 8, 1, 1, 0, 0);
/// input.fill_with(|x, _, _| x as f64);
/// let mut out: Grid<f64> = Grid::new(16, 8, 1, 1, 0, 0);
///
/// Engine::new(4).sweep(&kernel, &[&input], &mut out, &TuningVector::new(8, 4, 1, 2, 2));
/// assert_eq!(out.get(3, 5, 0), 3.0); // (2 + 4) / 2
/// ```
pub struct Engine {
    pool: ThreadPool,
}

impl Engine {
    /// An engine running on `threads` threads.
    pub fn new(threads: usize) -> Self {
        Engine { pool: ThreadPool::new(threads) }
    }

    /// An engine using all available parallelism.
    pub fn with_default_threads() -> Self {
        Engine { pool: ThreadPool::with_default_threads() }
    }

    /// Threads used per sweep.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Performs one stencil sweep: for every interior point of `out`,
    /// `out[p] = kernel.apply(inputs, p)`, blocked and scheduled according
    /// to `tuning`.
    ///
    /// # Panics
    /// Panics when input/output extents disagree or halos are too small for
    /// the kernel's declared pattern radius.
    pub fn sweep<T, F>(
        &mut self,
        kernel: &F,
        inputs: &[&Grid<T>],
        out: &mut Grid<T>,
        tuning: &TuningVector,
    ) where
        T: Copy + Default + Send + Sync,
        F: StencilFn<T>,
    {
        let model = kernel.model();
        assert_eq!(inputs.len(), model.buffers() as usize, "input buffer count mismatch");
        let (nx, ny, nz) = out.extent();
        let (rx, ry, rz) = model.pattern().radius_per_axis();
        for g in inputs {
            assert_eq!(g.extent(), out.extent(), "input/output extents differ");
            let (hx, hy, hz) = g.halo();
            assert!(
                hx >= rx as usize && hy >= ry as usize && hz >= rz as usize,
                "input halo {:?} too small for pattern radius ({rx},{ry},{rz})",
                g.halo()
            );
        }

        let tiles = TileGrid::from_tuning(nx, ny, nz, tuning);
        let chunks = tiles.chunks(tuning.c as usize);
        let ix = Indexer::of(out);
        let out_ptr = SendPtr(out.raw_ptr());
        let unroll = tuning.u;
        let tile_slice = tiles.tiles();

        self.pool.run(chunks.len(), &|ci| {
            for ti in chunks[ci].clone() {
                process_tile(kernel, inputs, out_ptr, ix, tile_slice[ti], unroll);
            }
        });
    }

    /// Builds deterministic input grids for `instance`, runs
    /// `cfg.warmup + cfg.reps` sweeps and returns the median seconds per
    /// sweep.
    pub fn measure<T, F>(
        &mut self,
        kernel: &F,
        size: GridSize,
        tuning: &TuningVector,
        cfg: MeasureConfig,
    ) -> f64
    where
        T: Copy + Default + Send + Sync + FromF64,
        F: StencilFn<T>,
    {
        assert!(cfg.reps > 0, "need at least one timed repetition");
        let model = kernel.model();
        let instance = StencilInstance::new(model.clone(), size).expect("valid instance");
        let radius = instance.kernel().pattern().radius_per_axis();
        let buffers = model.buffers() as usize;
        let inputs: Vec<Grid<T>> = (0..buffers)
            .map(|b| {
                let mut g = Grid::for_size(size, radius);
                g.fill_with(|x, y, z| T::from_f64(test_field(b, x, y, z)));
                g
            })
            .collect();
        let input_refs: Vec<&Grid<T>> = inputs.iter().collect();
        let mut out = Grid::for_size(size, radius);

        for _ in 0..cfg.warmup {
            self.sweep(kernel, &input_refs, &mut out, tuning);
        }
        let mut times = Vec::with_capacity(cfg.reps as usize);
        for _ in 0..cfg.reps {
            let t0 = Instant::now();
            self.sweep(kernel, &input_refs, &mut out, tuning);
            times.push(t0.elapsed().as_secs_f64());
        }
        times.sort_by(f64::total_cmp);
        stencil_model::stats::median_sorted(&times)
    }
}

/// Conversion used to fill grids of either precision from one generator.
pub trait FromF64 {
    /// Converts (possibly lossily) from `f64`.
    fn from_f64(v: f64) -> Self;
}

impl FromF64 for f32 {
    fn from_f64(v: f64) -> Self {
        v as f32
    }
}

impl FromF64 for f64 {
    fn from_f64(v: f64) -> Self {
        v
    }
}

/// A smooth deterministic test field, different per buffer.
pub fn test_field(buffer: usize, x: i64, y: i64, z: i64) -> f64 {
    let b = buffer as f64 + 1.0;
    0.5 + 0.25 * ((x as f64) * 0.37 * b).sin() * ((y as f64) * 0.23 + b).cos()
        + 0.25 * ((z as f64) * 0.31 - b).sin()
}

/// Processes one tile, dispatching the unroll factor to a monomorphized
/// row loop (factors 0 and 1 both mean "no unrolling").
fn process_tile<T, F>(
    kernel: &F,
    inputs: &[&Grid<T>],
    out: SendPtr<T>,
    ix: Indexer,
    tile: Tile,
    unroll: u32,
) where
    T: Copy + Default,
    F: StencilFn<T>,
{
    match unroll {
        0 | 1 => tile_rows::<T, F, 1>(kernel, inputs, out, ix, tile),
        2 => tile_rows::<T, F, 2>(kernel, inputs, out, ix, tile),
        3 => tile_rows::<T, F, 3>(kernel, inputs, out, ix, tile),
        4 => tile_rows::<T, F, 4>(kernel, inputs, out, ix, tile),
        5 => tile_rows::<T, F, 5>(kernel, inputs, out, ix, tile),
        6 => tile_rows::<T, F, 6>(kernel, inputs, out, ix, tile),
        7 => tile_rows::<T, F, 7>(kernel, inputs, out, ix, tile),
        _ => tile_rows::<T, F, 8>(kernel, inputs, out, ix, tile),
    }
}

fn tile_rows<T, F, const U: usize>(
    kernel: &F,
    inputs: &[&Grid<T>],
    out: SendPtr<T>,
    ix: Indexer,
    tile: Tile,
) where
    T: Copy + Default,
    F: StencilFn<T>,
{
    for z in tile.z0..tile.z1 {
        for y in tile.y0..tile.y1 {
            let mut x = tile.x0;
            // Unrolled body: U stencil applications per iteration. The
            // fixed-trip inner loop is fully unrolled by the compiler.
            while x + U <= tile.x1 {
                for k in 0..U {
                    let xx = x + k;
                    let v = kernel.apply(inputs, xx, y, z);
                    // SAFETY: (xx, y, z) lies in this tile; tiles are
                    // disjoint and in-bounds, so this write is exclusive.
                    unsafe { *out.0.add(ix.index(xx, y, z)) = v };
                }
                x += U;
            }
            // Cleanup for the remainder of the row.
            while x < tile.x1 {
                let v = kernel.apply(inputs, x, y, z);
                // SAFETY: as above.
                unsafe { *out.0.add(ix.index(x, y, z)) = v };
                x += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::WeightedKernel;
    use crate::reference::reference_sweep;
    use stencil_model::DType;

    fn identity_kernel() -> WeightedKernel {
        WeightedKernel::new("identity", vec![(0, 0, 0, 0, 1.0)], 1, DType::F64).unwrap()
    }

    #[test]
    fn identity_sweep_copies_input() {
        let mut eng = Engine::new(2);
        let k = identity_kernel();
        let mut input: Grid<f64> = Grid::new(8, 8, 4, 0, 0, 0);
        input.fill_with(|x, y, z| (x * 100 + y * 10 + z) as f64);
        let mut out: Grid<f64> = Grid::new(8, 8, 4, 0, 0, 0);
        eng.sweep(&k, &[&input], &mut out, &TuningVector::new(4, 4, 2, 2, 2));
        assert_eq!(out.max_abs_diff(&input), 0.0);
    }

    #[test]
    fn all_unroll_factors_agree() {
        let k = WeightedKernel::new(
            "avg-x",
            vec![(-1, 0, 0, 0, 0.25), (0, 0, 0, 0, 0.5), (1, 0, 0, 0, 0.25)],
            1,
            DType::F64,
        )
        .unwrap();
        let mut input: Grid<f64> = Grid::new(13, 7, 3, 1, 0, 0);
        input.fill_with(|x, y, z| test_field(0, x, y, z));
        let mut reference: Grid<f64> = Grid::new(13, 7, 3, 1, 0, 0);
        reference_sweep(&k, &[&input], &mut reference);
        let mut eng = Engine::new(3);
        for u in 0..=8u32 {
            let mut out: Grid<f64> = Grid::new(13, 7, 3, 1, 0, 0);
            eng.sweep(&k, &[&input], &mut out, &TuningVector::new(5, 3, 2, u, 2));
            assert_eq!(out.max_abs_diff(&reference), 0.0, "u = {u}");
        }
    }

    /// Regression: for even rep counts the median must average the two
    /// middle values, not report the upper-middle one.
    #[test]
    fn even_rep_median_averages_the_middle_pair() {
        use stencil_model::stats::median_sorted;
        assert_eq!(median_sorted(&[1.0, 3.0]), 2.0); // reps = 2
        assert_eq!(median_sorted(&[1.0, 2.0, 4.0, 9.0]), 3.0); // reps = 4
        assert_eq!(median_sorted(&[1.0, 2.0, 3.0]), 2.0); // odd unchanged
        assert_eq!(median_sorted(&[7.0]), 7.0);
    }

    #[test]
    fn measure_supports_even_rep_counts() {
        let mut eng = Engine::new(2);
        let k = identity_kernel();
        for reps in [2u32, 4] {
            let secs = eng.measure::<f64, _>(
                &k,
                GridSize::square(32),
                &TuningVector::new(8, 8, 1, 0, 1),
                MeasureConfig { warmup: 0, reps },
            );
            assert!(secs > 0.0, "reps = {reps}");
        }
    }

    #[test]
    fn measure_returns_positive_median() {
        let mut eng = Engine::new(2);
        let k = identity_kernel();
        // The identity pattern is planar, so it measures on a 2-D size.
        let secs = eng.measure::<f64, _>(
            &k,
            GridSize::square(32),
            &TuningVector::new(8, 8, 1, 0, 1),
            MeasureConfig { warmup: 0, reps: 3 },
        );
        assert!(secs > 0.0);
    }

    #[test]
    #[should_panic(expected = "buffer count mismatch")]
    fn wrong_buffer_count_panics() {
        let mut eng = Engine::new(1);
        let k = identity_kernel();
        let mut out: Grid<f64> = Grid::new(4, 4, 1, 0, 0, 0);
        eng.sweep(&k, &[], &mut out, &TuningVector::new(2, 2, 1, 0, 1));
    }

    #[test]
    #[should_panic(expected = "halo")]
    fn missing_halo_panics() {
        let k = WeightedKernel::new("needs-halo", vec![(-1, 0, 0, 0, 1.0)], 1, DType::F64).unwrap();
        let input: Grid<f64> = Grid::new(4, 4, 1, 0, 0, 0); // no halo!
        let mut out: Grid<f64> = Grid::new(4, 4, 1, 0, 0, 0);
        Engine::new(1).sweep(&k, &[&input], &mut out, &TuningVector::new(2, 2, 1, 0, 1));
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let k = WeightedKernel::new(
            "star",
            vec![
                (0, 0, 0, 0, 0.4),
                (1, 0, 0, 0, 0.15),
                (-1, 0, 0, 0, 0.15),
                (0, 1, 0, 0, 0.15),
                (0, -1, 0, 0, 0.15),
            ],
            1,
            DType::F64,
        )
        .unwrap();
        let mut input: Grid<f64> = Grid::new(17, 19, 1, 1, 1, 0);
        input.fill_with(|x, y, z| test_field(0, x, y, z));
        let mut expected: Grid<f64> = Grid::new(17, 19, 1, 1, 1, 0);
        reference_sweep(&k, &[&input], &mut expected);
        for threads in [1usize, 2, 4, 8] {
            let mut eng = Engine::new(threads);
            let mut out: Grid<f64> = Grid::new(17, 19, 1, 1, 1, 0);
            eng.sweep(&k, &[&input], &mut out, &TuningVector::new(4, 4, 1, 3, 2));
            assert_eq!(out.max_abs_diff(&expected), 0.0, "threads = {threads}");
        }
    }
}
