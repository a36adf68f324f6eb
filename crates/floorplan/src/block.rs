//! Floorplan blocks: named shape curves fed by the estimator.

use maestro_estimator::{EstimateRecord, Pipeline};
use maestro_geom::{Lambda, LambdaArea, ShapeCurve};
use maestro_netlist::{Module, NetlistError};
use serde::Serialize;

/// A module as the floorplanner sees it: a name and a curve of feasible
/// (width, height) realizations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Block {
    name: String,
    curve: ShapeCurve,
}

impl Block {
    /// A rigid block with exactly one realization (rotations allowed).
    ///
    /// # Panics
    ///
    /// Panics if a dimension is non-positive or the name is empty.
    pub fn hard(name: impl Into<String>, width: Lambda, height: Lambda) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "block name must be non-empty");
        Block {
            name,
            curve: ShapeCurve::hard(width, height).with_rotations(),
        }
    }

    /// A soft block of the given area, realizable at `steps` aspect ratios
    /// in the paper's typical 1:2…2:1 band.
    ///
    /// # Panics
    ///
    /// Panics if the area is non-positive, `steps == 0`, or the name is
    /// empty.
    pub fn soft(name: impl Into<String>, area: LambdaArea, steps: usize) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "block name must be non-empty");
        Block {
            name,
            curve: ShapeCurve::soft(area, 0.5, 2.0, steps),
        }
    }

    /// A block with an explicit shape curve.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty.
    pub fn with_curve(name: impl Into<String>, curve: ShapeCurve) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "block name must be non-empty");
        Block { name, curve }
    }

    /// Builds a block from an estimator record: the standard-cell estimate
    /// becomes a hard(-ish) shape, the full-custom estimate a soft area;
    /// when both exist the smaller-area style wins (the designer "chooses
    /// the most appropriate methodology").
    ///
    /// Returns `None` when the record carries no estimate.
    pub fn from_record(record: &EstimateRecord, steps: usize) -> Option<Block> {
        let sc = record.standard_cell.as_ref();
        let fc = record.full_custom.as_ref();
        let use_sc = match (sc, fc) {
            (Some(s), Some(f)) => s.area <= f.total_exact,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if use_sc {
            let s = sc.expect("checked above");
            // The §7 multi-aspect candidates make the block flexible: one
            // realization per row count, plus rotations.
            let mut points = vec![maestro_geom::ShapePoint::new(s.width, s.height)];
            points.extend(
                record
                    .standard_cell_candidates
                    .iter()
                    .map(|c| maestro_geom::ShapePoint::new(c.width, c.height)),
            );
            let curve = ShapeCurve::from_points(points).with_rotations();
            Some(Block::with_curve(record.module_name.clone(), curve))
        } else {
            let f = fc.expect("checked above");
            Some(Block::soft(
                record.module_name.clone(),
                f.total_exact,
                steps,
            ))
        }
    }

    /// Estimates a module through `pipeline` and builds its block, the
    /// Figure 1 estimator → floorplanner hand-off in one call. The
    /// pipeline's resolve-once cache makes repeat floorplans of the same
    /// module skip the netlist analysis.
    ///
    /// Returns `Ok(None)` when the record carries no estimate.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Pipeline::run_module`].
    pub fn from_module(
        pipeline: &Pipeline,
        module: &Module,
        steps: usize,
    ) -> Result<Option<Block>, NetlistError> {
        let record = pipeline.run_module(module)?;
        Ok(Block::from_record(&record, steps))
    }

    /// Block name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The realization curve.
    pub fn curve(&self) -> &ShapeCurve {
        &self.curve
    }

    /// The smallest realizable area.
    pub fn min_area(&self) -> LambdaArea {
        self.curve.min_area_point().area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_block_allows_rotation() {
        let b = Block::hard("rom", Lambda::new(100), Lambda::new(40));
        assert_eq!(b.curve().len(), 2);
        assert_eq!(b.min_area(), LambdaArea::new(4000));
        assert_eq!(b.name(), "rom");
    }

    #[test]
    fn soft_block_has_multiple_shapes() {
        let b = Block::soft("alu", LambdaArea::new(10_000), 5);
        assert!(b.curve().len() >= 3);
        for p in b.curve().points() {
            assert!(p.area().get() >= 10_000);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_name_rejected() {
        let _ = Block::soft("", LambdaArea::new(100), 3);
    }

    #[test]
    fn from_record_prefers_smaller_style() {
        use maestro_estimator::{
            full_custom,
            standard_cell::{self, ScParams},
        };
        use maestro_netlist::{generate, library_circuits, LayoutStyle, NetlistStats};
        use maestro_tech::builtin;

        let tech = builtin::nmos25();
        let sc_m = generate::ripple_adder(2);
        let sc_stats = NetlistStats::resolve(&sc_m, &tech, LayoutStyle::StandardCell).unwrap();
        let sc = standard_cell::estimate(&sc_stats, &tech, &ScParams::default());
        let fc_m = library_circuits::pass_chain(3);
        let fc_stats = NetlistStats::resolve(&fc_m, &tech, LayoutStyle::FullCustom).unwrap();
        let fc = full_custom::estimate(&fc_stats, &tech);

        let rec = maestro_estimator::EstimateRecord {
            module_name: "mix".to_owned(),
            standard_cell: Some(sc.clone()),
            full_custom: Some(fc.clone()),
            standard_cell_candidates: Vec::new(),
        };
        let block = Block::from_record(&rec, 4).expect("has estimates");
        let expected = sc.area.min(fc.total_exact);
        // The chosen curve's min area is within rounding of the winner.
        assert!(block.min_area().get() <= expected.get() + expected.get() / 10 + 4);

        let none = maestro_estimator::EstimateRecord {
            module_name: "void".to_owned(),
            standard_cell: None,
            full_custom: None,
            standard_cell_candidates: Vec::new(),
        };
        assert!(Block::from_record(&none, 4).is_none());
    }

    #[test]
    fn from_module_runs_the_pipeline_and_matches_from_record() {
        use maestro_netlist::generate;
        use maestro_tech::builtin;

        let pipeline = Pipeline::new(builtin::nmos25());
        let module = generate::ripple_adder(2);
        let via_module = Block::from_module(&pipeline, &module, 4)
            .expect("estimates")
            .expect("has an estimate");
        let record = pipeline.run_module(&module).expect("estimates");
        let via_record = Block::from_record(&record, 4).expect("has an estimate");
        assert_eq!(via_module, via_record);
        assert_eq!(via_module.name(), "ripple_adder_2");
    }
}
