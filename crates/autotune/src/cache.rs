//! Tuned-schedule persistence.
//!
//! Real Ansor writes its measurement log to disk so tuning is a one-time
//! cost per (operator, machine). This module gives the workspace the same
//! property: a [`ScheduleCache`] maps convolution shapes to tuned
//! [`Schedule`]s and serializes to JSON, so the end-to-end harness (and
//! any downstream user) can tune once and reuse.

use std::collections::HashMap;
use std::path::Path;

use ndirect_core::Schedule;
use ndirect_support::{Json, JsonError};
use ndirect_tensor::ConvShape;

/// A persistent map from convolution shapes to tuned schedules.
///
/// Keys are the canonical `Display` rendering of [`ConvShape`]
/// (`"N1 C64 H56 …"`) — human-readable in the JSON and unambiguous, since
/// `Display` covers every field.
#[derive(Debug, Default, Clone)]
pub struct ScheduleCache {
    entries: HashMap<String, Schedule>,
    /// Free-form provenance: machine description, trial budget, date.
    pub provenance: String,
}

impl ScheduleCache {
    /// An empty cache with a provenance note.
    pub fn new(provenance: impl Into<String>) -> Self {
        ScheduleCache {
            entries: HashMap::new(),
            provenance: provenance.into(),
        }
    }

    /// Stores a tuned schedule for a shape.
    pub fn put(&mut self, shape: &ConvShape, schedule: Schedule) {
        self.entries.insert(shape.to_string(), schedule);
    }

    /// Looks a shape up.
    pub fn get(&self, shape: &ConvShape) -> Option<&Schedule> {
        self.entries.get(&shape.to_string())
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to pretty JSON. Entries are sorted by key so the output
    /// is stable across runs.
    pub fn to_json(&self) -> String {
        let mut keys: Vec<&String> = self.entries.keys().collect();
        keys.sort();
        let entries = keys
            .into_iter()
            .map(|k| (k.clone(), self.entries[k].to_json()))
            .collect();
        Json::Obj(vec![
            ("provenance".into(), Json::str(self.provenance.clone())),
            ("entries".into(), Json::Obj(entries)),
        ])
        .pretty()
    }

    /// Parses from JSON; malformed text or schedules come back as a typed
    /// [`JsonError`], never a panic.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let root = Json::parse(text)?;
        let provenance = root.str_field("provenance")?.to_string();
        let raw = root
            .require("entries")?
            .as_obj()
            .ok_or(JsonError {
                msg: "\"entries\" must be an object".into(),
                at: 0,
            })?;
        let mut entries = HashMap::new();
        for (key, value) in raw {
            entries.insert(key.clone(), Schedule::from_json(value)?);
        }
        Ok(ScheduleCache {
            entries,
            provenance,
        })
    }

    /// Writes the cache to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a cache from a file.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Converts into the `(shape, schedule)` table the engine's
    /// `NDirectBackend::tuned` consumes, given the shapes of interest (the cache
    /// stores string keys; shapes not present are skipped).
    pub fn table_for(&self, shapes: &[ConvShape]) -> HashMap<ConvShape, Schedule> {
        shapes
            .iter()
            .filter_map(|s| self.get(s).map(|sched| (*s, sched.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_shape() -> ConvShape {
        ConvShape::square(2, 16, 32, 14, 3, 1)
    }

    #[test]
    fn put_get_round_trip() {
        let shape = sample_shape();
        let mut cache = ScheduleCache::new("unit test");
        assert!(cache.is_empty());
        cache.put(&shape, Schedule::minimal(&shape));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&shape), Some(&Schedule::minimal(&shape)));
        // A different shape misses.
        let other = ConvShape::square(1, 16, 32, 14, 3, 1);
        assert!(cache.get(&other).is_none());
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let shape = sample_shape();
        let mut cache = ScheduleCache::new("machine X, 64 trials");
        let mut sched = Schedule::minimal(&shape);
        sched.vw = 8;
        sched.vk = 8;
        sched.packing = ndirect_core::PackingMode::Sequential;
        cache.put(&shape, sched.clone());

        let parsed = ScheduleCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(parsed.provenance, "machine X, 64 trials");
        assert_eq!(parsed.get(&shape), Some(&sched));
    }

    #[test]
    fn file_round_trip() {
        let shape = sample_shape();
        let mut cache = ScheduleCache::new("file test");
        cache.put(&shape, Schedule::minimal(&shape));
        let path = std::env::temp_dir().join("ndirect_schedule_cache_test.json");
        cache.save(&path).unwrap();
        let loaded = ScheduleCache::load(&path).unwrap();
        assert_eq!(loaded.get(&shape), cache.get(&shape));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_is_an_error_not_a_panic() {
        let path = std::env::temp_dir().join("ndirect_schedule_cache_corrupt.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(ScheduleCache::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn table_for_filters_known_shapes() {
        let a = sample_shape();
        let b = ConvShape::square(1, 8, 8, 10, 3, 1);
        let mut cache = ScheduleCache::new("t");
        cache.put(&a, Schedule::minimal(&a));
        let table = cache.table_for(&[a, b]);
        assert_eq!(table.len(), 1);
        assert!(table.contains_key(&a));
    }
}
