//! [`JointModel::cyclic_log_likelihood`] as it stood before the stacked
//! pass — 2k separate tape passes, one per (model, title), recorded title
//! by title — frozen as the oracle the stacked pass is pinned against, bit
//! for bit: the loss and every gradient both models' parameters receive,
//! flushed on top of an earlier example's gradients.

use qrw_nmt::ModelConfig;
use qrw_text::NUM_SPECIALS;

use super::*;

fn per_path_cyclic_log_likelihood<'t>(
    model: &JointModel,
    tape: &'t Tape,
    query: &[usize],
    titles: &[Vec<usize>],
) -> Var<'t> {
    assert!(!titles.is_empty(), "cyclic term needs at least one synthetic title");
    let mut paths = Vec::with_capacity(titles.len());
    for title in titles {
        if title.is_empty() {
            continue;
        }
        let (nll_f, _) = model.forward.nll_on_tape(tape, query, title, &mut None);
        let (nll_b, _) = model.backward.nll_on_tape(tape, title, query, &mut None);
        // log P_f + log P_b = -(nll_f + nll_b)
        paths.push(nll_f.add(nll_b).scale(-1.0));
    }
    assert!(!paths.is_empty(), "all synthetic titles were empty");
    Var::log_sum_exp_scalars(&paths)
}

const VOCAB: usize = 300;
const LAMBDA: f32 = 0.5;

fn joint(forward: ModelConfig, backward: ModelConfig) -> JointModel {
    JointModel::new(Seq2Seq::new(forward, 31), Seq2Seq::new(backward, 32))
}

fn transformers() -> JointModel {
    joint(ModelConfig::forward_q2t(VOCAB), ModelConfig::backward_t2q(VOCAB))
}

/// `len` ordinary tokens, varied by `seed`.
fn tokens(len: usize, seed: usize) -> Vec<usize> {
    (0..len).map(|i| NUM_SPECIALS + (i * 37 + seed * 11) % (VOCAB - NUM_SPECIALS)).collect()
}

/// One example's step as `example_backward` takes it, with another
/// example's gradients already in the parameters: the pair term and
/// `-λ·L_c` on one tape, then one backward pass. Returns the loss and
/// every parameter gradient of both models, as bits.
fn step_bits(
    model: &JointModel,
    query: &[usize],
    titles: &[Vec<usize>],
    stacked: bool,
) -> (u32, Vec<Vec<u32>>) {
    model.forward.params().zero_grads();
    model.backward.params().zero_grads();
    let earlier = Tape::new();
    let (f, _) = model.forward.nll_on_tape(&earlier, &tokens(3, 9), &tokens(4, 8), &mut None);
    let (b, _) = model.backward.nll_on_tape(&earlier, &tokens(4, 8), &tokens(3, 9), &mut None);
    earlier.backward(f.add(b));

    let tape = Tape::new();
    let title = titles.iter().find(|t| !t.is_empty()).expect("a non-empty title");
    let (nll_f, _) = model.forward.nll_on_tape(&tape, query, title, &mut None);
    let (nll_b, _) = model.backward.nll_on_tape(&tape, title, query, &mut None);
    let lc = if stacked {
        model.cyclic_log_likelihood(&tape, query, titles)
    } else {
        per_path_cyclic_log_likelihood(model, &tape, query, titles)
    };
    let loss = nll_f.add(nll_b).add(lc.scale(-LAMBDA));
    let loss_bits = loss.item().to_bits();
    tape.backward(loss);
    let grads = model
        .forward
        .params()
        .iter()
        .chain(model.backward.params())
        .map(|p| p.grad().data().iter().map(|v| v.to_bits()).collect())
        .collect();
    (loss_bits, grads)
}

fn assert_matches_oracle(model: &JointModel, query: &[usize], titles: &[Vec<usize>]) {
    let (want_loss, want) = step_bits(model, query, titles, false);
    let (got_loss, got) = step_bits(model, query, titles, true);
    let lens: Vec<usize> = titles.iter().map(Vec::len).collect();
    assert_eq!(
        got_loss,
        want_loss,
        "loss {} vs oracle {} (title lengths {lens:?})",
        f32::from_bits(got_loss),
        f32::from_bits(want_loss)
    );
    let params = model.forward.params().iter().chain(model.backward.params());
    for ((p, got), want) in params.zip(&got).zip(&want) {
        if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
            panic!(
                "{} [{i}]: {:e} vs oracle {:e} (title lengths {lens:?})",
                p.name(),
                f32::from_bits(got[i]),
                f32::from_bits(want[i])
            );
        }
    }
}

/// The weight `exp(s - lse)` the log-sum-exp gives the last of `titles`,
/// from the path scores `s = log P(ŷ|x) + log P(x|ŷ)`.
fn last_path_weight(model: &JointModel, query: &[usize], titles: &[Vec<usize>]) -> f32 {
    let scores: Vec<f32> = titles
        .iter()
        .map(|t| model.forward.log_prob(query, t) + model.backward.log_prob(t, query))
        .collect();
    let lse = qrw_tensor::log_sum_exp(&scores);
    (scores[scores.len() - 1] - lse).exp()
}

#[test]
fn stacked_pass_matches_the_per_path_oracle_for_one_to_four_titles() {
    let model = transformers();
    let query = tokens(4, 1);
    let titles: Vec<Vec<usize>> = [3, 5, 1, 7].iter().enumerate().map(|(i, &n)| tokens(n, i + 2)).collect();
    for k in 1..=titles.len() {
        assert_matches_oracle(&model, &query, &titles[..k]);
    }
}

#[test]
fn empty_titles_are_skipped_as_the_oracle_skips_them() {
    let model = transformers();
    let titles = vec![vec![], tokens(4, 3), vec![], tokens(2, 4), vec![]];
    assert_matches_oracle(&model, &tokens(3, 5), &titles);
}

#[test]
fn titles_and_queries_at_and_past_the_length_limits() {
    let model = transformers();
    let (max_src, max_tgt) = (model.forward.config().max_src_len, model.forward.max_tgt_len());
    let titles = vec![tokens(max_tgt, 6), tokens(2, 7), tokens(max_tgt + 6, 8)];
    assert_matches_oracle(&model, &tokens(5, 9), &titles);
    assert_matches_oracle(&model, &tokens(max_src + 3, 10), &titles);
}

/// Paths whose log-sum-exp weight is subnormal send gradients below
/// 2⁻¹²³ through their segment (the exact GEMM body), and paths whose
/// weight underflows to zero send all-zero gradients (skipped products),
/// while the other segments of the same stacked products run on the f32
/// body.
#[test]
fn tiny_and_zero_path_weights_match_the_oracle() {
    let model = transformers();
    let query = tokens(3, 11);
    let short = tokens(1, 12);
    let weight = |len: usize| last_path_weight(&model, &query, &[short.clone(), tokens(len, 13)]);
    let max_tgt = model.forward.max_tgt_len();
    let tiny = (2..=max_tgt)
        .find(|&n| weight(n) > 0.0 && weight(n) < f32::MIN_POSITIVE)
        .expect("a title length with a subnormal path weight");
    assert_matches_oracle(&model, &query, &[short.clone(), tokens(tiny, 13)]);
    assert_matches_oracle(&model, &query, &[tokens(tiny, 13), short.clone(), tokens(2, 14)]);
    let zero = (tiny..=max_tgt).find(|&n| weight(n) == 0.0).expect("a title length with weight 0");
    assert_matches_oracle(&model, &query, &[short.clone(), tokens(zero, 13), tokens(tiny, 13)]);
}

/// Models with a recurrent component score their paths one pass after
/// another behind the same entry point.
#[test]
fn recurrent_models_match_the_oracle() {
    let titles = vec![tokens(3, 15), tokens(6, 16), tokens(1, 17)];
    for (forward, backward) in [
        (ModelConfig::hybrid(VOCAB), ModelConfig::hybrid(VOCAB)),
        (ModelConfig::attn_rnn(VOCAB), ModelConfig::attn_rnn(VOCAB)),
    ] {
        assert_matches_oracle(&joint(forward, backward), &tokens(4, 18), &titles);
    }
}
