//! Per-window row accumulation.
//!
//! [`WindowSeries`] is a boundary tracker: it owns the window width and
//! the next boundary cycle, tells the caller when a window has closed,
//! and accumulates one caller-built row per window.

/// Boundary tracker that snapshots one row per closed window.
///
/// The caller polls [`WindowSeries::due`] each cycle; when it returns a
/// window descriptor, the caller builds a row for `[start, end)` and
/// [`WindowSeries::push`]es it, which advances the boundary to the next
/// window. Windows are fixed-width and gap-free by construction.
#[derive(Debug, Clone)]
pub struct WindowSeries<T> {
    width: u64,
    next_boundary: u64,
    next_index: u64,
    rows: Vec<T>,
}

impl<T> WindowSeries<T> {
    /// A series of `width`-cycle windows starting at cycle `base`.
    ///
    /// # Panics
    /// Panics if `width` is zero.
    pub fn new(width: u64, base: u64) -> Self {
        assert!(width > 0, "window width must be positive");
        WindowSeries { width, next_boundary: base + width, next_index: 0, rows: Vec::new() }
    }

    /// Window width in cycles.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// If the window ending at or before `now` has closed, its
    /// `(index, start_cycle, end_cycle)` descriptor (end exclusive).
    /// Returns `None` while the current window is still filling.
    pub fn due(&self, now: u64) -> Option<(u64, u64, u64)> {
        (now >= self.next_boundary)
            .then(|| (self.next_index, self.next_boundary - self.width, self.next_boundary))
    }

    /// Descriptor for the currently filling (partial) window up to
    /// `now`, or `None` if it is empty. Used to flush the tail window
    /// at end of run so sums over rows match end-of-run totals.
    pub fn partial(&self, now: u64) -> Option<(u64, u64, u64)> {
        let start = self.next_boundary - self.width;
        (now > start).then_some((self.next_index, start, now))
    }

    /// Close the current window with `row` and open the next one.
    pub fn push(&mut self, row: T) {
        self.rows.push(row);
        self.next_boundary += self.width;
        self.next_index += 1;
    }

    /// Rows closed so far, oldest first.
    pub fn rows(&self) -> &[T] {
        &self.rows
    }

    /// Consume the series, yielding its rows.
    pub fn into_rows(self) -> Vec<T> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_boundaries_are_contiguous() {
        let mut s: WindowSeries<(u64, u64, u64)> = WindowSeries::new(100, 250);
        assert!(s.due(349).is_none());
        let first = s.due(350).unwrap();
        assert_eq!(first, (0, 250, 350));
        s.push(first);
        let second = s.due(455).unwrap();
        assert_eq!(second, (1, 350, 450));
        s.push(second);
        assert_eq!(s.rows().len(), 2);
    }

    #[test]
    fn series_partial_tail() {
        let mut s: WindowSeries<u64> = WindowSeries::new(100, 0);
        s.push(0); // closes [0, 100)
        assert_eq!(s.partial(100), None);
        assert_eq!(s.partial(130), Some((1, 100, 130)));
    }
}
