//! Padded 3-D grids.
//!
//! A [`Grid`] owns a dense field of `nx * ny * nz` interior points
//! surrounded by a per-axis halo (ghost cells) wide enough for the stencil
//! radius, so kernels never branch on boundaries. Storage is x-contiguous
//! (`x` fastest, then `y`, then `z`), matching the innermost-loop direction
//! of the engine. Two-dimensional grids use `nz = 1` with a zero z halo.

/// A dense 3-D grid with halo.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<T> {
    nx: usize,
    ny: usize,
    nz: usize,
    hx: usize,
    hy: usize,
    hz: usize,
    row: usize,   // padded x extent
    plane: usize, // padded x*y extent
    data: Vec<T>,
}

impl<T: Copy + Default> Grid<T> {
    /// Creates a zero-initialized grid with the given interior extents and
    /// per-axis halo widths.
    ///
    /// # Panics
    /// Panics when any interior extent is zero.
    pub fn new(nx: usize, ny: usize, nz: usize, hx: usize, hy: usize, hz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid extents must be positive");
        let row = nx + 2 * hx;
        let col = ny + 2 * hy;
        let dep = nz + 2 * hz;
        let plane = row * col;
        Grid { nx, ny, nz, hx, hy, hz, row, plane, data: vec![T::default(); plane * dep] }
    }

    /// A grid sized for `size` with a uniform halo of `radius` on the
    /// active axes (z gets no halo for planar grids).
    pub fn for_size(size: stencil_model::GridSize, radius: (u32, u32, u32)) -> Self {
        Grid::new(
            size.x as usize,
            size.y as usize,
            size.z as usize,
            radius.0 as usize,
            radius.1 as usize,
            if size.is_2d() { 0 } else { radius.2 as usize },
        )
    }

    /// Interior extents `(nx, ny, nz)`.
    pub fn extent(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Halo widths `(hx, hy, hz)`.
    pub fn halo(&self) -> (usize, usize, usize) {
        (self.hx, self.hy, self.hz)
    }

    /// Number of interior points.
    pub fn points(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Linear index of interior coordinate `(x, y, z)` (0-based, halos
    /// excluded; negative offsets reach into the halo via [`Self::at`]).
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z + self.hz) * self.plane + (y + self.hy) * self.row + (x + self.hx)
    }

    /// Reads interior point `(x, y, z)` displaced by `(dx, dy, dz)`, which
    /// may reach into the halo.
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize, dx: i32, dy: i32, dz: i32) -> T {
        let idx = self.offset_index(x, y, z, dx, dy, dz);
        self.data[idx]
    }

    /// Linear index of a displaced interior coordinate.
    #[inline]
    pub fn offset_index(&self, x: usize, y: usize, z: usize, dx: i32, dy: i32, dz: i32) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        debug_assert!(dx.unsigned_abs() as usize <= self.hx || (x as i64 + dx as i64) >= 0);
        let xx = (x + self.hx) as i64 + dx as i64;
        let yy = (y + self.hy) as i64 + dy as i64;
        let zz = (z + self.hz) as i64 + dz as i64;
        debug_assert!(xx >= 0 && (xx as usize) < self.row);
        zz as usize * self.plane + yy as usize * self.row + xx as usize
    }

    /// Writes interior point `(x, y, z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let idx = self.index(x, y, z);
        self.data[idx] = v;
    }

    /// Reads interior point `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        self.data[self.index(x, y, z)]
    }

    /// Fills interior *and halo* from a function of the (possibly halo)
    /// coordinates relative to the interior origin.
    pub fn fill_with(&mut self, mut f: impl FnMut(i64, i64, i64) -> T) {
        let (row, plane) = (self.row, self.plane);
        let (hx, hy, hz) = (self.hx as i64, self.hy as i64, self.hz as i64);
        let dep = self.nz + 2 * self.hz;
        let col = self.ny + 2 * self.hy;
        for zz in 0..dep {
            for yy in 0..col {
                for xx in 0..row {
                    self.data[zz * plane + yy * row + xx] =
                        f(xx as i64 - hx, yy as i64 - hy, zz as i64 - hz);
                }
            }
        }
    }

    /// Raw storage (including halo), mostly for the engine's unsafe
    /// shared-write path.
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Raw pointer to the storage (for disjoint-tile parallel writes).
    pub(crate) fn raw_ptr(&mut self) -> *mut T {
        self.data.as_mut_ptr()
    }

    /// Total padded length of the raw storage.
    pub fn raw_len(&self) -> usize {
        self.data.len()
    }
}

impl Grid<f32> {
    /// Maximum absolute difference over the interior of two equally-shaped
    /// grids.
    pub fn max_abs_diff(&self, other: &Grid<f32>) -> f32 {
        grid_diff(self, other, |a, b| (a - b).abs())
    }
}

impl Grid<f64> {
    /// Maximum absolute difference over the interior of two equally-shaped
    /// grids.
    pub fn max_abs_diff(&self, other: &Grid<f64>) -> f64 {
        grid_diff(self, other, |a, b| (a - b).abs())
    }
}

fn grid_diff<T: Copy + Default + PartialOrd>(a: &Grid<T>, b: &Grid<T>, d: impl Fn(T, T) -> T) -> T {
    assert_eq!(a.extent(), b.extent(), "grid extents differ");
    let mut worst = T::default();
    for z in 0..a.nz {
        for y in 0..a.ny {
            for x in 0..a.nx {
                let v = d(a.get(x, y, z), b.get(x, y, z));
                if v > worst {
                    worst = v;
                }
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_respects_halo() {
        let mut g: Grid<f64> = Grid::new(4, 3, 2, 1, 1, 1);
        g.set(0, 0, 0, 42.0);
        assert_eq!(g.get(0, 0, 0), 42.0);
        // The raw index of (0,0,0) is offset by one halo layer on each axis.
        let row = 4 + 2;
        let plane = row * (3 + 2);
        assert_eq!(g.index(0, 0, 0), plane + row + 1);
    }

    #[test]
    fn at_reaches_halo() {
        let mut g: Grid<f64> = Grid::new(2, 2, 1, 1, 1, 0);
        g.fill_with(|x, y, _| (10 * x + y) as f64);
        // Interior (0,0) displaced by (-1, 0): halo coordinate x = -1.
        assert_eq!(g.at(0, 0, 0, -1, 0, 0), -10.0);
        assert_eq!(g.at(1, 1, 0, 1, 1, 0), 22.0);
    }

    #[test]
    fn fill_with_sees_relative_coordinates() {
        let mut g: Grid<f32> = Grid::new(3, 3, 3, 2, 2, 2);
        g.fill_with(|x, y, z| (x + y + z) as f32);
        assert_eq!(g.get(0, 0, 0), 0.0);
        assert_eq!(g.get(2, 2, 2), 6.0);
        assert_eq!(g.at(0, 0, 0, -2, -2, -2), -6.0);
    }

    #[test]
    fn for_size_2d_has_no_z_halo() {
        let g: Grid<f32> = Grid::for_size(stencil_model::GridSize::square(8), (2, 2, 2));
        assert_eq!(g.extent(), (8, 8, 1));
        assert_eq!(g.halo(), (2, 2, 0));
    }

    #[test]
    fn points_and_raw_len() {
        let g: Grid<f64> = Grid::new(4, 4, 4, 1, 1, 1);
        assert_eq!(g.points(), 64);
        assert_eq!(g.raw_len(), 6 * 6 * 6);
    }

    #[test]
    fn max_abs_diff_detects_mismatch() {
        let mut a: Grid<f64> = Grid::new(2, 2, 1, 0, 0, 0);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        a.set(1, 1, 0, 3.0);
        b.set(1, 1, 0, 1.0);
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _: Grid<f32> = Grid::new(0, 1, 1, 0, 0, 0);
    }
}
