//! Brute-force oracles: full scans over row-major coordinates, written
//! here from the definitions — no crate code computes the answers the
//! crates' answers are checked against.

use wqrtq_engine::{Plan, Refinement};

/// `f(w, p) = Σ wᵢ·pᵢ`, accumulated left to right from zero — the order
/// the library's dot product uses, so equal inputs give bit-equal scores.
pub fn score(w: &[f64], p: &[f64]) -> f64 {
    let mut s = 0.0;
    for (a, b) in w.iter().zip(p) {
        s += a * b;
    }
    s
}

/// Live rows of a dataset with their stable ids.
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    /// Row-major coordinates.
    pub coords: &'a [f64],
    /// Dimensionality.
    pub dim: usize,
    /// Id of each row (`None`: row `i` has id `i`).
    pub ids: Option<&'a [u32]>,
}

impl Rows<'_> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Points scoring strictly below `threshold` under `w`.
    pub fn count_better(&self, w: &[f64], threshold: f64) -> usize {
        self.coords
            .chunks_exact(self.dim)
            .filter(|p| score(w, p) < threshold)
            .count()
    }

    /// The `k` lowest scores under `w`, ascending.
    pub fn topk_scores(&self, w: &[f64], k: usize) -> Vec<f64> {
        let mut scores: Vec<f64> = self
            .coords
            .chunks_exact(self.dim)
            .map(|p| score(w, p))
            .collect();
        let k = k.min(scores.len());
        if k < scores.len() {
            scores.select_nth_unstable_by(k, f64::total_cmp);
            scores.truncate(k);
        }
        scores.sort_by(f64::total_cmp);
        scores
    }

    /// Checks a `TopK` reply: the scores are bit-equal to a full scan's
    /// `k` lowest, and every reported id is distinct and really scores
    /// what the reply says (robust to exact ties, which may legally
    /// surface either tied id).
    pub fn check_topk(&self, w: &[f64], k: usize, reply: &[(u32, f64)]) -> Result<(), String> {
        let want = self.topk_scores(w, k);
        if reply.len() != want.len() {
            return Err(format!("top-k length {} != {}", reply.len(), want.len()));
        }
        for (i, ((id, got), want)) in reply.iter().zip(&want).enumerate() {
            if got.to_bits() != want.to_bits() {
                return Err(format!("top-k score {i}: {got:e} != {want:e}"));
            }
            let row = match self.ids {
                None => Some(*id as usize).filter(|&r| r < self.len()),
                Some(ids) => ids.iter().position(|x| x == id),
            };
            let Some(row) = row else {
                return Err(format!("top-k id {id} is not a live point"));
            };
            let p = &self.coords[row * self.dim..(row + 1) * self.dim];
            if score(w, p).to_bits() != got.to_bits() {
                return Err(format!("top-k id {id} does not score {got:e}"));
            }
        }
        let mut ids: Vec<u32> = reply.iter().map(|r| r.0).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != reply.len() {
            return Err("top-k reports an id twice".into());
        }
        Ok(())
    }

    /// Bichromatic reverse top-k by per-weight rank counting: customer
    /// `i` qualifies when fewer than `k` points score strictly better
    /// than `q` under `weights[i]`. Splits the population over two
    /// threads (the cores are idle while the oracle runs).
    pub fn reverse_topk(&self, weights: &[Vec<f64>], q: &[f64], k: usize) -> Vec<usize> {
        let half = weights.len().div_ceil(2).max(1);
        std::thread::scope(|scope| {
            let parts: Vec<_> = weights
                .chunks(half)
                .enumerate()
                .map(|(c, chunk)| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .enumerate()
                            .filter(|(_, w)| self.count_better(w, score(w, q)) < k)
                            .map(|(i, _)| c * half + i)
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            parts
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread"))
                .collect()
        })
    }

    /// Checks a `ReverseTopKBi` reply against [`Rows::reverse_topk`].
    pub fn check_reverse_topk(
        &self,
        weights: &[Vec<f64>],
        q: &[f64],
        k: usize,
        reply: &[usize],
    ) -> Result<(), String> {
        let want = self.reverse_topk(weights, q, k);
        let mut got = reply.to_vec();
        got.sort_unstable();
        if got != want {
            return Err(format!(
                "reverse top-k: {} members reported, {} by rank counting",
                got.len(),
                want.len()
            ));
        }
        Ok(())
    }

    /// Checks a why-not plan: every step carries the library's own
    /// `verified` flag, steps are ranked cheapest-first, and the
    /// recommended refinement passes an independent rank check — under
    /// every (possibly refined) why-not vector the (possibly refined)
    /// query point has fewer than the (possibly refined) `k` points
    /// strictly ahead of it.
    pub fn check_plan(
        &self,
        q: &[f64],
        k: usize,
        why_not: &[Vec<f64>],
        plan: &Plan,
    ) -> Result<(), String> {
        if plan.steps.is_empty() {
            return Err("plan has no steps".into());
        }
        if let Some(s) = plan.steps.iter().find(|s| !s.verified) {
            return Err(format!("{} step is not verified", s.strategy.name()));
        }
        if plan.explanations.len() != why_not.len() {
            return Err("one explanation per why-not vector expected".into());
        }
        for (w, e) in why_not.iter().zip(&plan.explanations) {
            let rank = self.count_better(w, score(w, q)) + 1;
            if e.rank != rank {
                return Err(format!("explained rank {} != counted {rank}", e.rank));
            }
        }
        if !plan
            .steps
            .windows(2)
            .all(|p| p[0].refinement.penalty <= p[1].refinement.penalty)
        {
            return Err("plan steps are not ranked by penalty".into());
        }
        let Refinement {
            q_prime,
            why_not: refined,
            k: k_prime,
            ..
        } = &plan.recommended().refinement;
        let q = q_prime.as_deref().unwrap_or(q);
        let k = k_prime.unwrap_or(k);
        let vectors = refined.as_deref().unwrap_or(why_not);
        if vectors.len() != why_not.len() {
            return Err("refinement changed the number of why-not vectors".into());
        }
        for w in vectors {
            let ahead = self.count_better(w, score(w, q));
            if ahead >= k {
                return Err(format!(
                    "recommended refinement leaves {ahead} points ahead with k = {k}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Figure 1 of the paper: (price, heat) of seven computers.
    const FIG1: [f64; 14] = [
        2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
    ];

    fn rows() -> Rows<'static> {
        Rows {
            coords: &FIG1,
            dim: 2,
            ids: None,
        }
    }

    #[test]
    fn topk_check_accepts_the_scan_and_rejects_wrong_answers() {
        let w = [0.5, 0.5];
        assert_eq!(rows().topk_scores(&w, 2), vec![1.5, 4.5]);
        assert!(rows().check_topk(&w, 2, &[(0, 1.5), (1, 4.5)]).is_ok());
        assert!(rows().check_topk(&w, 2, &[(0, 1.5), (2, 5.0)]).is_err());
        assert!(rows().check_topk(&w, 2, &[(0, 1.5), (6, 4.5)]).is_err());
        assert!(rows().check_topk(&w, 2, &[(0, 1.5)]).is_err());
    }

    #[test]
    fn reverse_topk_counts_strictly_better_points() {
        // q = (4, 4) scores 4.0 under (0.5, 0.5): only p0 (1.5) is better.
        let weights = vec![vec![0.5, 0.5], vec![0.1, 0.9], vec![0.9, 0.1]];
        let q = [4.0, 4.0];
        assert_eq!(rows().reverse_topk(&weights, &q, 2), vec![0]);
        // Three points beat q under the skewed vectors: k = 4 admits it.
        assert_eq!(rows().reverse_topk(&weights, &q, 3), vec![0]);
        assert_eq!(rows().reverse_topk(&weights, &q, 4), vec![0, 1, 2]);
        assert!(rows().check_reverse_topk(&weights, &q, 2, &[0]).is_ok());
        assert!(rows().check_reverse_topk(&weights, &q, 2, &[0, 1]).is_err());
    }

    #[test]
    fn ids_map_rows_of_a_mutated_dataset() {
        let ids = [10u32, 11, 12, 13, 14, 15, 16];
        let r = Rows {
            ids: Some(&ids),
            ..rows()
        };
        assert!(r.check_topk(&[0.5, 0.5], 1, &[(10, 1.5)]).is_ok());
        assert!(r.check_topk(&[0.5, 0.5], 1, &[(0, 1.5)]).is_err());
    }
}
