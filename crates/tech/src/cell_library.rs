//! Standard-cell libraries: "cells have the same height, but different
//! widths" (paper §4.1).

use std::collections::BTreeMap;
use std::fmt;

use maestro_geom::{Lambda, LambdaArea, Point};
use serde::{Deserialize, Serialize};

use crate::TechError;

/// Which edge of the cell a pin sits on.
///
/// Standard-cell pins are reachable from the routing channel above or below
/// the row ("routing channels between the rows allow wires to connect to
/// the tops and bottoms of devices", paper §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PinSide {
    /// Pin on the top cell edge.
    Top,
    /// Pin on the bottom cell edge.
    Bottom,
    /// Pin reachable from both edges (internal feed-through pin).
    Both,
}

impl fmt::Display for PinSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PinSide::Top => "top",
            PinSide::Bottom => "bottom",
            PinSide::Both => "both",
        };
        f.write_str(s)
    }
}

/// One logical pin of a standard-cell template.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PinTemplate {
    name: String,
    offset: Lambda,
    side: PinSide,
}

impl PinTemplate {
    /// Creates a pin at horizontal `offset` from the cell's left edge.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or the offset negative.
    pub fn new(name: impl Into<String>, offset: Lambda, side: PinSide) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "pin name must be non-empty");
        assert!(
            offset.get() >= 0,
            "pin `{name}` offset {offset} is negative"
        );
        PinTemplate { name, offset, side }
    }

    /// Pin name, unique within a cell.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Horizontal offset from the cell's left edge.
    pub fn offset(&self) -> Lambda {
        self.offset
    }

    /// Cell edge the pin sits on.
    pub fn side(&self) -> PinSide {
        self.side
    }
}

/// One standard-cell type: a fixed-height, variable-width tile with named
/// pins.
///
/// # Examples
///
/// ```
/// use maestro_geom::Lambda;
/// use maestro_tech::{CellTemplate, PinSide, PinTemplate};
///
/// let inv = CellTemplate::new(
///     "INV",
///     Lambda::new(14),
///     Lambda::new(40),
///     vec![
///         PinTemplate::new("A", Lambda::new(3), PinSide::Both),
///         PinTemplate::new("Y", Lambda::new(11), PinSide::Both),
///     ],
/// );
/// assert_eq!(inv.pin("A").unwrap().offset().get(), 3);
/// assert_eq!(inv.area().get(), 14 * 40);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellTemplate {
    name: String,
    width: Lambda,
    height: Lambda,
    pins: Vec<PinTemplate>,
}

impl CellTemplate {
    /// Creates a cell template.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty, dimensions are not positive, a pin
    /// offset exceeds the width, or pin names collide.
    pub fn new(
        name: impl Into<String>,
        width: Lambda,
        height: Lambda,
        pins: Vec<PinTemplate>,
    ) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "cell name must be non-empty");
        assert!(
            width.is_positive() && height.is_positive(),
            "cell `{name}` has degenerate size {width} × {height}"
        );
        for (i, p) in pins.iter().enumerate() {
            assert!(
                p.offset() <= width,
                "cell `{name}` pin `{}` offset {} exceeds width {width}",
                p.name(),
                p.offset()
            );
            for q in &pins[..i] {
                assert!(
                    p.name() != q.name(),
                    "cell `{name}` has duplicate pin `{}`",
                    p.name()
                );
            }
        }
        CellTemplate {
            name,
            width,
            height,
            pins,
        }
    }

    /// Cell name, unique within a library.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell width (the varying dimension).
    pub fn width(&self) -> Lambda {
        self.width
    }

    /// Cell height (equal to the library row height).
    pub fn height(&self) -> Lambda {
        self.height
    }

    /// Cell area.
    pub fn area(&self) -> LambdaArea {
        self.width * self.height
    }

    /// All pins in declaration order.
    pub fn pins(&self) -> &[PinTemplate] {
        &self.pins
    }

    /// Looks up a pin by name.
    pub fn pin(&self, name: &str) -> Option<&PinTemplate> {
        self.pins.iter().find(|p| p.name() == name)
    }

    /// The location of a pin relative to the cell's lower-left corner,
    /// given the cell height (pins sit on the top or bottom edge; `Both`
    /// reports the bottom-edge location).
    pub fn pin_location(&self, name: &str) -> Option<Point> {
        self.pin(name).map(|p| {
            let y = match p.side() {
                PinSide::Top => self.height,
                PinSide::Bottom | PinSide::Both => Lambda::ZERO,
            };
            Point::new(p.offset(), y)
        })
    }
}

impl fmt::Display for CellTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}×{} ({} pins)",
            self.name,
            self.width,
            self.height,
            self.pins.len()
        )
    }
}

/// A standard-cell library: a shared row height and a set of cell
/// templates.
///
/// # Examples
///
/// ```
/// use maestro_tech::builtin;
///
/// let lib = builtin::nmos25().cell_library().clone();
/// let nand = lib.cell("NAND2").expect("library has 2-input NANDs");
/// assert_eq!(nand.height(), lib.row_height());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellLibrary {
    name: String,
    row_height: Lambda,
    cells: BTreeMap<String, CellTemplate>,
}

impl CellLibrary {
    /// Creates an empty library with the given row height.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or the row height not positive.
    pub fn new(name: impl Into<String>, row_height: Lambda) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "library name must be non-empty");
        assert!(
            row_height.is_positive(),
            "library `{name}` row height {row_height} must be positive"
        );
        CellLibrary {
            name,
            row_height,
            cells: BTreeMap::new(),
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The common cell/row height.
    pub fn row_height(&self) -> Lambda {
        self.row_height
    }

    /// Adds a cell template.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::DuplicateName`] if a cell of the same name
    /// exists, or [`TechError::InvalidParameter`] if the cell height does
    /// not match the library row height.
    pub fn add_cell(&mut self, cell: CellTemplate) -> Result<(), TechError> {
        if cell.height() != self.row_height {
            return Err(TechError::InvalidParameter {
                message: format!(
                    "cell `{}` height {} does not match library row height {}",
                    cell.name(),
                    cell.height(),
                    self.row_height
                ),
            });
        }
        if self.cells.contains_key(cell.name()) {
            return Err(TechError::DuplicateName {
                name: cell.name().to_owned(),
            });
        }
        self.cells.insert(cell.name().to_owned(), cell);
        Ok(())
    }

    /// Looks up a cell template by name.
    pub fn cell(&self, name: &str) -> Option<&CellTemplate> {
        self.cells.get(name)
    }

    /// Iterates over all cells in name order.
    pub fn iter(&self) -> impl Iterator<Item = &CellTemplate> {
        self.cells.values()
    }

    /// Number of cell templates.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl fmt::Display for CellLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "library `{}`: {} cells, row height {}",
            self.name,
            self.cells.len(),
            self.row_height
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(height: i64) -> CellTemplate {
        CellTemplate::new(
            "INV",
            Lambda::new(14),
            Lambda::new(height),
            vec![
                PinTemplate::new("A", Lambda::new(3), PinSide::Both),
                PinTemplate::new("Y", Lambda::new(11), PinSide::Top),
            ],
        )
    }

    #[test]
    fn cell_pin_lookup_and_location() {
        let c = inv(40);
        assert_eq!(c.pin("A").unwrap().side(), PinSide::Both);
        assert_eq!(c.pin("missing"), None);
        let loc = c.pin_location("Y").unwrap();
        assert_eq!(loc, Point::new(Lambda::new(11), Lambda::new(40)));
        let loc = c.pin_location("A").unwrap();
        assert_eq!(loc, Point::new(Lambda::new(3), Lambda::ZERO));
    }

    #[test]
    #[should_panic(expected = "duplicate pin")]
    fn duplicate_pin_rejected() {
        let _ = CellTemplate::new(
            "X",
            Lambda::new(10),
            Lambda::new(40),
            vec![
                PinTemplate::new("A", Lambda::new(1), PinSide::Top),
                PinTemplate::new("A", Lambda::new(2), PinSide::Top),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "exceeds width")]
    fn pin_offset_beyond_width_rejected() {
        let _ = CellTemplate::new(
            "X",
            Lambda::new(10),
            Lambda::new(40),
            vec![PinTemplate::new("A", Lambda::new(11), PinSide::Top)],
        );
    }

    #[test]
    fn library_add_and_lookup() {
        let mut lib = CellLibrary::new("test", Lambda::new(40));
        lib.add_cell(inv(40)).expect("first add succeeds");
        assert_eq!(lib.len(), 1);
        assert!(!lib.is_empty());
        assert!(lib.cell("INV").is_some());
        assert!(lib.cell("NAND9").is_none());
    }

    #[test]
    fn library_rejects_duplicates_and_height_mismatch() {
        let mut lib = CellLibrary::new("test", Lambda::new(40));
        lib.add_cell(inv(40)).expect("first add succeeds");
        assert!(matches!(
            lib.add_cell(inv(40)),
            Err(TechError::DuplicateName { .. })
        ));
        let mut lib2 = CellLibrary::new("test2", Lambda::new(42));
        assert!(matches!(
            lib2.add_cell(inv(40)),
            Err(TechError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn iteration_in_name_order() {
        let mut lib = CellLibrary::new("test", Lambda::new(40));
        let mk = |name: &str| CellTemplate::new(name, Lambda::new(10), Lambda::new(40), vec![]);
        lib.add_cell(mk("NOR2")).unwrap();
        lib.add_cell(mk("AND2")).unwrap();
        lib.add_cell(mk("INV")).unwrap();
        let names: Vec<_> = lib.iter().map(|c| c.name().to_owned()).collect();
        assert_eq!(names, ["AND2", "INV", "NOR2"]);
    }
}
