//! Lens registry — Augeas-style extensible dispatch.
//!
//! "Augeas provides an extensible interface to import other parsers,
//! enabling users to easily import their own configuration parser into
//! EnCore" (§4.1).  The registry reproduces that: predefined lenses for the
//! studied applications, plus [`LensRegistry::register`] for user lenses.

use crate::{ApacheLens, IniLens, KeyValue, Lens, Pairs, ParseError, SshdLens};
use std::collections::HashMap;
use std::sync::Arc;

/// Registry mapping application names to lenses.
#[derive(Clone)]
pub struct LensRegistry {
    lenses: HashMap<String, Arc<dyn Lens>>,
}

impl std::fmt::Debug for LensRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LensRegistry")
            .field("apps", &self.apps())
            .finish()
    }
}

impl Default for LensRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl LensRegistry {
    /// An empty registry.
    pub fn new() -> LensRegistry {
        LensRegistry {
            lenses: HashMap::new(),
        }
    }

    /// A registry preloaded with the four studied applications.
    pub fn with_defaults() -> LensRegistry {
        let mut r = LensRegistry::new();
        r.register("apache", Arc::new(ApacheLens::new()));
        r.register("mysql", Arc::new(IniLens::mysql()));
        r.register("php", Arc::new(IniLens::php()));
        r.register("sshd", Arc::new(SshdLens::new()));
        r
    }

    /// Register (or replace) a lens for an application name.
    pub fn register(&mut self, app: &str, lens: Arc<dyn Lens>) {
        self.lenses.insert(app.to_string(), lens);
    }

    /// Look up the lens for an application.
    pub fn lens(&self, app: &str) -> Option<&Arc<dyn Lens>> {
        self.lenses.get(app)
    }

    /// Parse `text` with the lens registered for `app`, appending its pairs
    /// to `pairs`.  This is where `assemble.parse.*` counts.
    ///
    /// # Errors
    ///
    /// [`ParseError::NoLens`] if no lens is registered, otherwise whatever
    /// the lens reports.  On error `pairs` is left as it was.
    pub fn parse_into(&self, app: &str, text: &str, pairs: &mut Pairs) -> Result<(), ParseError> {
        let _span = crate::obs::PARSE_TIME.span();
        crate::obs::PARSE_CALLS.incr();
        let before = pairs.len();
        let result = match self.lens(app) {
            Some(l) => l.parse_into(text, pairs),
            None => Err(ParseError::NoLens(app.to_string())),
        };
        match &result {
            Ok(()) => crate::obs::PARSE_ENTRIES.add((pairs.len() - before) as u64),
            Err(_) => {
                pairs.truncate(before);
                crate::obs::PARSE_ERRORS.incr();
            }
        }
        result
    }

    /// [`LensRegistry::parse_into`] a new buffer, collected into owned
    /// pairs.
    ///
    /// # Errors
    ///
    /// Same as [`LensRegistry::parse_into`].
    pub fn parse(&self, app: &str, text: &str) -> Result<Vec<KeyValue>, ParseError> {
        let mut pairs = Pairs::new();
        self.parse_into(app, text, &mut pairs)?;
        Ok(pairs.to_vec())
    }

    /// Registered application names, sorted.
    pub fn apps(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.lenses.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_studied_apps() {
        let r = LensRegistry::with_defaults();
        assert_eq!(r.apps(), vec!["apache", "mysql", "php", "sshd"]);
    }

    #[test]
    fn dispatch_parses_per_app() {
        let r = LensRegistry::with_defaults();
        let pairs = r.parse("php", "[PHP]\nmemory_limit = 64M\n").unwrap();
        assert_eq!(pairs[0].key, "memory_limit");
        assert!(matches!(r.parse("nginx", ""), Err(ParseError::NoLens(_))));
    }

    #[test]
    fn user_lens_registration() {
        struct TrivialLens;
        impl Lens for TrivialLens {
            fn name(&self) -> &str {
                "trivial"
            }
            fn parse_into(&self, text: &str, pairs: &mut Pairs) -> Result<(), ParseError> {
                for (k, v) in text.lines().filter_map(|l| l.split_once(':')) {
                    pairs.push(k, v);
                }
                Ok(())
            }
            fn render(&self, pairs: &[KeyValue]) -> String {
                pairs
                    .iter()
                    .map(|p| format!("{}:{}", p.key, p.value))
                    .collect::<Vec<_>>()
                    .join("\n")
            }
        }
        let mut r = LensRegistry::with_defaults();
        r.register("custom", Arc::new(TrivialLens));
        let pairs = r.parse("custom", "a:1\nb:2").unwrap();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn a_failed_parse_leaves_the_buffer_as_it_was() {
        let r = LensRegistry::with_defaults();
        let mut pairs = Pairs::new();
        r.parse_into("php", "[PHP]\na = 1\n", &mut pairs).unwrap();
        let before = pairs.clone();
        assert!(r.parse_into("php", "b = 2\nbare\n", &mut pairs).is_err());
        assert!(r.parse_into("nginx", "", &mut pairs).is_err());
        assert_eq!(pairs, before);
        r.parse_into("php", "c = 3\n", &mut pairs).unwrap();
        assert_eq!(pairs.iter().collect::<Vec<_>>(), [("a", "1"), ("c", "3")]);
    }
}
