//! Estimate records and the floorplanner-facing results database.
//!
//! Figure 1 of the paper: "These results are stored in a data base, which
//! also contains the global module descriptions … This data base is input
//! to the floor planner." [`ResultsDb`] is that database — a JSON-backed
//! collection of per-module [`EstimateRecord`]s.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

use maestro_geom::LambdaArea;
use serde::{Deserialize, Serialize};

use crate::{FcEstimate, ScEstimate};

/// One module's estimates, for whichever layout styles were run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateRecord {
    /// Module name.
    pub module_name: String,
    /// Standard-cell estimate, when the module resolved against the cell
    /// library.
    pub standard_cell: Option<ScEstimate>,
    /// Full-custom estimate, when the module resolved against the
    /// transistor templates.
    pub full_custom: Option<FcEstimate>,
    /// The §7 multi-aspect extension: alternative standard-cell shapes at
    /// other row counts ("four or five aspect ratio estimates to allow
    /// chip floor planners more flexibility"). Empty when not computed.
    #[serde(default)]
    pub standard_cell_candidates: Vec<ScEstimate>,
}

impl EstimateRecord {
    /// The best available area for floorplanning: the smaller of the two
    /// styles' totals (designers "intelligently choose the most
    /// appropriate methodology"), or whichever exists.
    pub fn preferred_area(&self) -> Option<LambdaArea> {
        let sc = self.standard_cell.as_ref().map(|e| e.area);
        let fc = self.full_custom.as_ref().map(|e| e.total_exact);
        match (sc, fc) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }
}

/// Error raised by results-database persistence.
#[derive(Debug)]
pub struct ResultsDbError {
    message: String,
}

impl fmt::Display for ResultsDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "results database i/o failed: {}", self.message)
    }
}

impl Error for ResultsDbError {}

/// The results database handed to the floorplanner: one record per input
/// module, in input order.
///
/// # Examples
///
/// ```
/// use maestro_estimator::{EstimateRecord, ResultsDb};
///
/// let mut db = ResultsDb::new();
/// db.insert(EstimateRecord {
///     module_name: "alu".to_owned(),
///     standard_cell: None,
///     full_custom: None,
///     standard_cell_candidates: Vec::new(),
/// });
/// assert!(db.record("alu").is_some());
/// let json = db.to_json()?;
/// assert_eq!(ResultsDb::from_json(&json)?.len(), 1);
/// # Ok::<(), maestro_estimator::report::ResultsDbError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultsDb {
    records: Vec<EstimateRecord>,
}

impl ResultsDb {
    /// An empty database.
    pub fn new() -> Self {
        ResultsDb::default()
    }

    /// Appends a module's record. The database keeps one record per
    /// input module, in input order, even when two modules share a name.
    pub fn insert(&mut self, record: EstimateRecord) {
        self.records.push(record);
    }

    /// Looks up a module's record by name: the first, when several
    /// modules share the name.
    pub fn record(&self, module_name: &str) -> Option<&EstimateRecord> {
        self.records.iter().find(|r| r.module_name == module_name)
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[EstimateRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ResultsDbError`] if serialization fails.
    pub fn to_json(&self) -> Result<String, ResultsDbError> {
        serde_json::to_string_pretty(self).map_err(|e| ResultsDbError {
            message: e.to_string(),
        })
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ResultsDbError`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, ResultsDbError> {
        serde_json::from_str(json).map_err(|e| ResultsDbError {
            message: e.to_string(),
        })
    }

    /// Writes the database to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`ResultsDbError`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ResultsDbError> {
        let json = self.to_json()?;
        fs::write(path.as_ref(), json).map_err(|e| ResultsDbError {
            message: format!("{}: {e}", path.as_ref().display()),
        })
    }

    /// Reads a database from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`ResultsDbError`] if the file cannot be read or parsed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ResultsDbError> {
        let json = fs::read_to_string(path.as_ref()).map_err(|e| ResultsDbError {
            message: format!("{}: {e}", path.as_ref().display()),
        })?;
        ResultsDb::from_json(&json)
    }
}

impl Extend<EstimateRecord> for ResultsDb {
    fn extend<T: IntoIterator<Item = EstimateRecord>>(&mut self, iter: T) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl FromIterator<EstimateRecord> for ResultsDb {
    fn from_iter<T: IntoIterator<Item = EstimateRecord>>(iter: T) -> Self {
        let mut db = ResultsDb::new();
        db.extend(iter);
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        full_custom,
        standard_cell::{self, ScParams},
    };
    use maestro_netlist::{generate, LayoutStyle, NetlistStats};
    use maestro_tech::builtin;

    fn sample_record() -> EstimateRecord {
        let tech = builtin::nmos25();
        let m = generate::ripple_adder(2);
        let sc_stats = NetlistStats::resolve(&m, &tech, LayoutStyle::StandardCell).unwrap();
        let sc = standard_cell::estimate(&sc_stats, &tech, &ScParams::default());
        let fc_m = generate::nmos_inverter_chain(4);
        let fc_stats = NetlistStats::resolve(&fc_m, &tech, LayoutStyle::FullCustom).unwrap();
        let fc = full_custom::estimate(&fc_stats, &tech);
        EstimateRecord {
            module_name: "combo".to_owned(),
            standard_cell: Some(sc),
            full_custom: Some(fc),
            standard_cell_candidates: Vec::new(),
        }
    }

    #[test]
    fn insert_keeps_every_record_in_order() {
        let mut db = ResultsDb::new();
        let first = sample_record();
        let mut second = first.clone();
        second.standard_cell = None;
        let mut other = first.clone();
        other.module_name = "other".to_owned();
        for r in [&first, &second, &other] {
            db.insert(r.clone());
        }
        assert_eq!(db.records(), [first.clone(), second, other]);
        assert_eq!(db.record("combo"), Some(&first), "the first record wins");
    }

    #[test]
    fn preferred_area_picks_smaller_style() {
        let r = sample_record();
        let sc = r.standard_cell.as_ref().unwrap().area;
        let fc = r.full_custom.as_ref().unwrap().total_exact;
        assert_eq!(r.preferred_area(), Some(sc.min(fc)));
        let empty = EstimateRecord {
            module_name: "x".to_owned(),
            standard_cell: None,
            full_custom: None,
            standard_cell_candidates: Vec::new(),
        };
        assert_eq!(empty.preferred_area(), None);
    }

    #[test]
    fn json_round_trip() {
        let db: ResultsDb = [sample_record()].into_iter().collect();
        let json = db.to_json().expect("serializes");
        let back = ResultsDb::from_json(&json).expect("parses");
        assert_eq!(db, back);
    }

    #[test]
    fn file_round_trip() {
        let db: ResultsDb = [sample_record()].into_iter().collect();
        let dir = std::env::temp_dir().join("maestro-results-db-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("results.json");
        db.save(&path).expect("saves");
        assert_eq!(ResultsDb::load(&path).expect("loads"), db);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(ResultsDb::from_json("[oops").is_err());
    }

    #[test]
    fn empty_db_reports_empty() {
        let db = ResultsDb::new();
        assert!(db.is_empty());
        assert_eq!(db.record("nothing"), None);
    }
}
