//! Independent release check: shares no code with the sanitizer.
//!
//! A release passes when it has the input's shape (same lines, same
//! token count per line, every token unchanged or `Δ`) and every
//! pattern's support — counted here by a gap-constrained subsequence scan
//! — is at most ψ.

use std::collections::HashMap;

pub struct Verdict {
    pub sequences: usize,
    pub marks: usize,
    pub supports: Vec<usize>,
}

/// Whether `ids` contains `pattern` as a subsequence whose consecutive
/// matched positions have at most `max_gap` symbols between them.
fn contains(ids: &[u32], pattern: &[u32], max_gap: usize) -> bool {
    // last[j]: the latest position where pattern[..=j] can end. The latest
    // end is always the best predecessor under a max-gap constraint.
    let mut last = [usize::MAX; 8];
    let m = pattern.len();
    for (i, &s) in ids.iter().enumerate() {
        for j in (1..m).rev() {
            if s == pattern[j] && last[j - 1] != usize::MAX && i - last[j - 1] - 1 <= max_gap {
                last[j] = i;
            }
        }
        if s == pattern[0] {
            last[0] = i;
        }
        if last[m - 1] != usize::MAX {
            return true;
        }
    }
    false
}

pub fn check(
    original: &str,
    release: &str,
    patterns: &[String],
    max_gap: Option<usize>,
) -> Result<Verdict, String> {
    let mut ids: HashMap<&str, u32> = HashMap::new();
    let pats: Vec<Vec<u32>> = patterns
        .iter()
        .map(|p| {
            p.split_whitespace()
                .map(|w| {
                    let next = ids.len() as u32;
                    *ids.entry(w).or_insert(next)
                })
                .collect()
        })
        .collect();
    if pats.iter().any(|p| p.is_empty() || p.len() > 8) {
        return Err("patterns must have 1 to 8 symbols".to_string());
    }
    let max_gap = max_gap.unwrap_or(usize::MAX);
    let orig_lines: Vec<&str> = original.lines().filter(|l| !l.trim().is_empty()).collect();
    let rel_lines: Vec<&str> = release.lines().filter(|l| !l.trim().is_empty()).collect();
    if orig_lines.len() != rel_lines.len() {
        return Err(format!(
            "release has {} sequences, input {}",
            rel_lines.len(),
            orig_lines.len()
        ));
    }
    let mut supports = vec![0usize; pats.len()];
    let mut marks = 0usize;
    let mut seq_ids: Vec<u32> = Vec::new();
    for (n, (o, r)) in orig_lines.iter().zip(&rel_lines).enumerate() {
        seq_ids.clear();
        let mut ot = o.split_whitespace();
        for rt in r.split_whitespace() {
            let Some(orig_tok) = ot.next() else {
                return Err(format!("sequence {n}: release is longer than the input"));
            };
            if rt == "Δ" {
                if orig_tok != "Δ" {
                    marks += 1;
                }
                seq_ids.push(u32::MAX);
            } else if rt == orig_tok {
                seq_ids.push(ids.get(rt).copied().unwrap_or(u32::MAX - 1));
            } else {
                return Err(format!(
                    "sequence {n}: '{orig_tok}' became '{rt}', not a mark"
                ));
            }
        }
        if ot.next().is_some() {
            return Err(format!("sequence {n}: release is shorter than the input"));
        }
        for (k, p) in pats.iter().enumerate() {
            if contains(&seq_ids, p, max_gap) {
                supports[k] += 1;
            }
        }
    }
    Ok(Verdict {
        sequences: orig_lines.len(),
        marks,
        supports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_constrained_containment() {
        // a _ _ b c: the a→b arrow has gap 2.
        let t = [1, 9, 9, 2, 3];
        assert!(contains(&t, &[1, 2, 3], 2));
        assert!(!contains(&t, &[1, 2, 3], 1));
        // A later `a` can rescue a match the first one misses.
        let t = [1, 9, 9, 1, 2, 3];
        assert!(contains(&t, &[1, 2, 3], 0));
        assert!(!contains(&[3, 2, 1], &[1, 2, 3], usize::MAX));
    }

    #[test]
    fn marks_and_shape() {
        let pats = vec!["a b".to_string()];
        let v = check("a b c\nb a\n", "Δ b c\nb a\n", &pats, None).unwrap();
        assert_eq!((v.sequences, v.marks, v.supports.clone()), (2, 1, vec![0]));
        assert!(check("a b c\n", "a x c\n", &pats, None).is_err());
        assert!(check("a b c\n", "a b\n", &pats, None).is_err());
    }
}
