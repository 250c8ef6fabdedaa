//! A minimal `Cargo.toml` reader for the F-rules.
//!
//! This is not a TOML parser — it reads exactly the manifest subset the feature-gate rules
//! need: the package name, `[features]` definitions (with line numbers,
//! for violation locations), and dependency names with their `optional`
//! flag. Multi-line arrays and inline tables are handled; exotic TOML
//! (nested tables in values, literal strings with escapes) is not used
//! by this workspace and is ignored rather than misread.

/// One `[features]` entry: `name = ["value", …]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureDef {
    /// Feature name (the key).
    pub name: String,
    /// 1-indexed line of the key.
    pub line: usize,
    /// The entry's elements: plain feature names, `dep/feat`,
    /// `dep?/feat`, or `dep:name` forms, as written.
    pub values: Vec<String>,
}

/// One dependency (from `[dependencies]`, `[dev-dependencies]`, or
/// `[build-dependencies]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepDef {
    /// The dependency key (package name as referenced in features).
    pub name: String,
    /// Whether it is `optional = true` (defines an implicit feature).
    pub optional: bool,
    /// Whether it came from `[dev-dependencies]`.
    pub dev: bool,
    /// 1-indexed line of the key.
    pub line: usize,
}

/// The manifest subset fedlint reads.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `[package] name`, if present.
    pub package_name: Option<String>,
    /// `[features]` entries in declaration order.
    pub features: Vec<FeatureDef>,
    /// Dependencies across the dependency tables.
    pub dependencies: Vec<DepDef>,
}

impl Manifest {
    /// Whether `name` is a declared feature or an implicit
    /// optional-dependency feature.
    pub fn has_feature(&self, name: &str) -> bool {
        self.features.iter().any(|f| f.name == name)
            || self.dependencies.iter().any(|d| d.optional && d.name == name)
    }

    /// Find a (non-dev) dependency by key.
    pub fn dependency(&self, name: &str) -> Option<&DepDef> {
        self.dependencies.iter().find(|d| d.name == name && !d.dev)
    }
}

/// Parse manifest text. Never fails: unreadable constructs are skipped,
/// which for lint purposes means "cannot verify" rather than an error.
pub fn parse(text: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let line_no = i + 1;
        let line = strip_toml_comment(lines[i]);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            i += 1;
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('[') {
            if let Some(end) = rest.find(']') {
                section = rest[..end].trim().to_string();
            }
            i += 1;
            continue;
        }
        let Some(eq) = trimmed.find('=') else {
            i += 1;
            continue;
        };
        let key = trimmed[..eq].trim().trim_matches('"').to_string();
        let mut value = trimmed[eq + 1..].trim().to_string();
        // Multi-line array: keep consuming until brackets balance.
        while bracket_balance(&value) > 0 && i + 1 < lines.len() {
            i += 1;
            value.push(' ');
            value.push_str(strip_toml_comment(lines[i]).trim());
        }
        match section.as_str() {
            "package" if key == "name" => {
                m.package_name = Some(value.trim_matches('"').to_string());
            }
            "features" => {
                m.features.push(FeatureDef {
                    name: key,
                    line: line_no,
                    values: string_elements(&value),
                });
            }
            "dependencies" | "dev-dependencies" | "build-dependencies"
            | "workspace.dependencies" => {
                let dev = section == "dev-dependencies";
                let optional = value.contains("optional") && value.contains("true");
                m.dependencies.push(DepDef { name: key, optional, dev, line: line_no });
            }
            _ => {}
        }
        i += 1;
    }
    m
}

/// Drop a `#` comment unless the `#` sits inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (pos, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..pos],
            _ => {}
        }
    }
    line
}

/// How many more `[`/`{` than `]`/`}` appear outside strings.
fn bracket_balance(value: &str) -> i64 {
    let mut depth = 0i64;
    let mut in_str = false;
    for c in value.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Every quoted string element in a value (array or single string).
fn string_elements(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = value;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        out.push(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_package_features_and_deps() {
        let text = "\
[package]
name = \"fedprox-demo\"
version = \"0.1.0\"

[features]
default = []
check = [\"fedprox-tensor/check\"]
telemetry = [
    \"fedprox-telemetry/enabled\",  # forwarded
    \"fedprox-core/telemetry\",
]

[dependencies]
fedprox-tensor = { path = \"../tensor\" }
serde = { workspace = true, optional = true }

[dev-dependencies]
proptest = { path = \"../../vendor/proptest\" }
";
        let m = parse(text);
        assert_eq!(m.package_name.as_deref(), Some("fedprox-demo"));
        assert_eq!(m.features.len(), 3);
        assert_eq!(m.features[1].values, vec!["fedprox-tensor/check".to_string()]);
        assert_eq!(
            m.features[2].values,
            vec![
                "fedprox-telemetry/enabled".to_string(),
                "fedprox-core/telemetry".to_string()
            ]
        );
        assert!(m.has_feature("check"));
        assert!(m.has_feature("serde"), "optional dep is an implicit feature");
        assert!(!m.has_feature("proptest"));
        assert!(m.dependency("fedprox-tensor").is_some());
        assert!(m.dependency("proptest").is_none(), "dev-deps are separate");
        assert!(m.dependencies.iter().any(|d| d.name == "proptest" && d.dev));
    }

    #[test]
    fn comments_and_strings_do_not_confuse_parsing() {
        let text = "\
[features]
# a comment with = and [brackets]
odd = [\"a#b\"]  # trailing comment
";
        let m = parse(text);
        assert_eq!(m.features.len(), 1);
        assert_eq!(m.features[0].values, vec!["a#b".to_string()]);
    }
}
