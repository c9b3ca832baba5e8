//! Random-variate generation for Monte-Carlo photon-event simulation.
//!
//! Only the `rand` core RNG is taken as a dependency; the distributions
//! themselves (normal, Poisson, binomial, exponential) are implemented here
//! so the workspace stays within its approved dependency set.

use crate::cast;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
///
/// Every experiment in the workspace threads an explicit seed through this
/// function so that all published numbers are bit-for-bit reproducible.
///
/// ```
/// use qfc_mathkit::rng::rng_from_seed;
/// use rand::Rng;
/// let mut a = rng_from_seed(7);
/// let mut b = rng_from_seed(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word.
#[inline]
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent child seed for shard `shard_id` of a
/// computation rooted at `seed`.
///
/// This is the counter-based splitting scheme behind the deterministic
/// parallel engine: every shard of a sharded Monte-Carlo run draws its
/// variates from `rng_from_seed(split_seed(seed, shard_id))`, so results
/// depend only on the (seed, shard) pair — never on how shards are
/// scheduled across worker threads. Two SplitMix64 finalizer rounds over
/// the golden-ratio-weighted counter give sibling streams that are
/// statistically independent of each other and of the parent stream.
///
/// ```
/// use qfc_mathkit::rng::split_seed;
/// assert_eq!(split_seed(7, 3), split_seed(7, 3));
/// assert_ne!(split_seed(7, 3), split_seed(7, 4));
/// assert_ne!(split_seed(7, 3), split_seed(8, 3));
/// ```
#[inline]
pub fn split_seed(seed: u64, shard_id: u64) -> u64 {
    let counter = seed
        .wrapping_add(shard_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    splitmix64_mix(splitmix64_mix(counter))
}

/// Draws a Bernoulli variate with success probability `p` (clamped to
/// `[0, 1]`).
#[inline]
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    rng.gen::<f64>() < p
}

/// Draws a standard normal variate via the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws a normal variate with mean `mu` and standard deviation `sigma`.
///
/// # Panics
///
/// Panics if `sigma < 0`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "normal: sigma must be non-negative");
    mu + sigma * standard_normal(rng)
}

/// Draws a standard exponential variate, of density e^{−x} on [0, ∞)
/// and mean 1. An Exp(rate) variate is this draw divided by `rate`.
///
/// A 256-layer ziggurat (Marsaglia & Tsang, "The Ziggurat Method for
/// Generating Random Variables", J. Stat. Softw. 5(8), 2000, built as in
/// rand_distr's `Exp1`). One `u64` gives the layer i from its low 8 bits
/// and a uniform U in [0, 1) from its top 53; x = U·x_i is returned when
/// it is below x_{i+1}, for 97.8 % of draws. The rest go to the wedge
/// test or the tail (`wedge_or_tail`). Every draw is below
/// r − ln 2^−53 < 44.44.
///
/// ```
/// use qfc_mathkit::rng::{rng_from_seed, standard_exponential};
/// let mut rng = rng_from_seed(5);
/// let x = standard_exponential(&mut rng);
/// assert!((0.0..44.44).contains(&x));
/// ```
#[inline]
pub fn standard_exponential<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (layer, x) = ziggurat_candidate(rng.next_u64());
    if x < ZIG_EXP_X[layer + 1] {
        return x;
    }
    wedge_or_tail(rng, layer, x)
}

/// Number of ziggurat layers; a word's low 8 bits pick one.
const ZIG_LAYERS: usize = 256;

/// Where the base layer's rectangle ends and the tail begins.
const ZIG_EXP_R: f64 = 7.69711747013105;

/// Layer `bits & 0xFF` of the ziggurat and the candidate U·x_i, with U
/// the top 53 bits of `bits` over 2^53. The two sets of bits are
/// disjoint, and xoshiro256**'s low bits are of full quality.
#[inline]
fn ziggurat_candidate(bits: u64) -> (usize, f64) {
    let layer = cast::u64_to_usize(bits & 0xFF);
    let u = cast::to_f64(bits >> 11) * (1.0 / 9_007_199_254_740_992.0);
    (layer, u * ZIG_EXP_X[layer])
}

/// The 2.2 % of [`standard_exponential`] draws whose candidate `x` from
/// `layer` lies beyond x_{i+1}. In layers 1–255 the point (x, y), y
/// uniform between f_{i+1} and f_i, is kept if it lies under e^{−x}; a
/// rejected candidate starts over with a new word. The base layer's
/// candidates beyond r fall in the tail, where X − r is Exp(1) again
/// (memorylessness): r − ln(1 − U), with 1 − U in (0, 1].
#[cold]
#[inline(never)]
fn wedge_or_tail<R: Rng + ?Sized>(rng: &mut R, mut layer: usize, mut x: f64) -> f64 {
    loop {
        if layer == 0 {
            return ZIG_EXP_R - (1.0 - rng.gen::<f64>()).ln();
        }
        let (f_outer, f_inner) = (ZIG_EXP_F[layer], ZIG_EXP_F[layer + 1]);
        if f_inner + (f_outer - f_inner) * rng.gen::<f64>() < (-x).exp() {
            return x;
        }
        (layer, x) = ziggurat_candidate(rng.next_u64());
        if x < ZIG_EXP_X[layer + 1] {
            return x;
        }
    }
}

/// Draws a Poisson variate with mean `lambda`.
///
/// Uses Knuth's product method for small means and a clipped
/// normal approximation (with continuity correction) for `lambda > 30`,
/// which is accurate to well below the statistical noise of any experiment
/// in this workspace.
///
/// # Panics
///
/// Panics if `lambda < 0` or is not finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "poisson: lambda must be finite and non-negative"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda <= 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = normal(rng, lambda, lambda.sqrt());
        cast::f64_to_u64((x + 0.5).max(0.0))
    }
}

/// Draws a binomial variate `Bin(n, p)`.
///
/// Dispatches on the regime: direct Bernoulli summation for small `n`;
/// Poisson limit for huge `n` with a small mean (the photon-counting
/// regime — `n` frames with a tiny per-frame probability); normal
/// approximation with continuity correction otherwise.
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let p = p.clamp(0.0, 1.0);
    if p == 0.0 || n == 0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    let mean = cast::to_f64(n) * p;
    let var = mean * (1.0 - p);
    if n <= 1024 {
        cast::usize_to_u64((0..n).filter(|_| rng.gen::<f64>() < p).count())
    } else if p < 0.01 {
        // Poisson limit: exact to O(p) for small p regardless of n.
        poisson(rng, mean).min(n)
    } else if var >= 25.0 {
        let x = normal(rng, mean, var.sqrt());
        cast::f64_to_u64((x + 0.5).clamp(0.0, cast::to_f64(n)))
    } else {
        // Moderate n with p near 0 or 1 but var small: sample the minority
        // outcome via the Poisson limit on the cheaper side.
        if p <= 0.5 {
            poisson(rng, mean).min(n)
        } else {
            n - poisson(rng, cast::to_f64(n) * (1.0 - p)).min(n)
        }
    }
}

/// Samples an index from a discrete distribution given by non-negative
/// `weights` (need not be normalized).
///
/// # Panics
///
/// Panics if all weights are zero or any is negative.
pub fn discrete<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights
        .iter()
        .inspect(|&&w| assert!(w >= 0.0, "discrete: negative weight"))
        .sum();
    assert!(total > 0.0, "discrete: all weights zero");
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Right edges x_0 … x_256 of the ziggurat's layers: x_0 = v / e^{−r},
/// x_1 = r, x_{i+1} = −ln(v / x_i + e^{−x_i}) and x_256 = 0, computed in
/// f64 and written as shortest round-trip literals.
#[rustfmt::skip]
static ZIG_EXP_X: [f64; ZIG_LAYERS + 1] = [
    8.697117470131053, 7.69711747013105, 6.941033629377213, 6.47837849383257,
    6.144164665772473, 5.8821443157954, 5.666410167454034, 5.4828906275260625,
    5.323090505754398, 5.1814872813015, 5.054288489981304, 4.9387770859012505,
    4.832939741025112, 4.735242996601741, 4.644491885420085, 4.559737061707351,
    4.480211746528422, 4.405287693473573, 4.334443680317273, 4.267242480277366,
    4.203313713735184, 4.1423408656640515, 4.084051310408298, 4.028208544647937,
    3.974606066673789, 3.9230625001354897, 3.873417670399509, 3.8255294185223367,
    3.779270992411668, 3.7345288940397974, 3.691201090237419, 3.6491955157608538,
    3.6084288131289095, 3.568825265648337, 3.5303158891293434, 3.4928376547740596,
    3.45633282113276, 3.42074835725112, 3.386035442460301, 3.3521490309001094,
    3.319047470970748, 3.2866921715990687, 3.25504730857045, 3.224079565286264,
    3.1937579032122403, 3.164053358025973, 3.1349388580844404, 3.1063890623398245,
    3.0783802152540902, 3.050890016615455, 3.0238975044556766, 2.9973829495161306,
    2.9713277599210897, 2.9457143948950457, 2.920526286512741, 2.895747768600142,
    2.8713640120155364, 2.847360965635189, 2.8237253024500353, 2.800444370250738,
    2.7775061464397566, 2.7548991965623446, 2.7326126361947, 2.7106360958679288,
    2.6889596887418037, 2.6675739807732666, 2.646469963151809, 2.6256390267977885,
    2.6050729387408356, 2.5847638202141408, 2.5647041263169053, 2.54488662711187,
    2.525304390037828, 2.505950763528594, 2.4868193617402095, 2.467904050297365,
    2.4491989329782498, 2.4306983392644197, 2.4123968126888706, 2.394289099921458,
    2.3763701405361406, 2.3586350574093373, 2.3410791477030344, 2.3236978743901964,
    2.30648685828358, 2.2894418705322694, 2.272558825553155, 2.255833774367219,
    2.239262898312909, 2.222842503111037, 2.206569013257664, 2.19043896672322,
    2.1744490099377747, 2.158595893043886, 2.142876465399842, 2.1272876713173683,
    2.111826546019042, 2.096490211801715, 2.081275874393225, 2.0661808194905755,
    2.051202409468585, 2.0363380802487696, 2.021585338318926, 2.0069417578945186,
    1.9924049782135766, 1.9779727009573604, 1.9636426877895483, 1.949412758007185,
    1.9352807862970514, 1.921244700591528, 1.9073024800183875, 1.8934521529393082,
    1.8796917950722112, 1.866019527692828, 1.8524335159111756, 1.83893196701888,
    1.8255131289035198, 1.8121752885263906, 1.7989167704602909, 1.785735935484126,
    1.7726311792313056, 1.7596009308890748, 1.7466436519460744, 1.7337578349855716,
    1.7209420025219353, 1.7081947058780578, 1.695514524101538, 1.682900062917554,
    1.6703499537164521, 1.6578628525741728, 1.6454374393037237, 1.6330724165359913,
    1.620766508828258, 1.6085184617988584, 1.5963270412864834, 1.584191032532689,
    1.5721092393862297, 1.560080483527888, 1.5481036037145135, 1.536177455041032,
    1.5243009082192263, 1.512472848872117, 1.5006921768428167, 1.488957805516746,
    1.4772686611561339, 1.4656236822457454, 1.4540218188487934, 1.4424620319720125,
    1.4309432929388797, 1.4194645827699832, 1.4080248915695357, 1.3966232179170421,
    1.385258568263122, 1.3739299563284906, 1.3626364025050868, 1.3513769332583352,
    1.3401505805295046, 1.3289563811371166, 1.3177933761763247, 1.3066606104151741,
    1.295557131686601, 1.2844819902750126, 1.2734342382962411, 1.2624129290696153,
    1.2514171164808525, 1.2404458543344066, 1.229498195693849, 1.2185731922087901,
    1.2076698934267611, 1.196787346088403, 1.1859245934042022, 1.1750806743109117,
    1.164254622705679, 1.1534454666557747, 1.1426522275816728, 1.1318739194110785,
    1.1211095477013302, 1.110358108727411, 1.0996185885325973, 1.0888899619385468,
    1.0781711915113723, 1.0674612264799677, 1.0567590016025514, 1.0460634359770442,
    1.0353734317905285, 1.0246878730026172, 1.0140056239570965, 1.0033255279156967,
    0.9926464055072759, 0.9819670530850626, 0.9712862409839033, 0.9606027116686665,
    0.949915177764076, 0.9392223199552623, 0.9285227847472104, 0.9178151820700443,
    0.9070980827156903, 0.8963700155898899, 0.8856294647617515, 0.8748748662910251,
    0.8641046048110045, 0.8533170098423734, 0.8425103518103685, 0.8316828377342732,
    0.8208326065544118, 0.8099577240574183, 0.7990561773554872, 0.7881258688694924,
    0.7771646097591297, 0.7661701127354347, 0.7551399841819822, 0.7440717155005081,
    0.7329626735843654, 0.7218100903087562, 0.710611050909655, 0.699362481103232,
    0.6880611327737478, 0.6767035680295226, 0.6652861413926779, 0.653804979847665,
    0.6422559604245364, 0.6306346849334903, 0.6189364513948761, 0.6071562216203,
    0.5952885842915029, 0.5833277127487695, 0.5712673165325883, 0.5591005855115406,
    0.5468201251633106, 0.5344178812371656, 0.521885051592135, 0.5092119824436544,
    0.49638804551867116, 0.48340149165346186, 0.470239275082169, 0.45688684093142024,
    0.4433278660735524, 0.4295439402254107, 0.41551416960035636, 0.40121467889627777,
    0.3866179779411196, 0.37169214532991723, 0.3563997602583938, 0.3406964810648491,
    0.32452911701690945, 0.30783295467493216, 0.2905279554912304, 0.2725131854784647,
    0.253658363385912, 0.23379048305967473, 0.21267151063096662, 0.18995868962243184,
    0.16512762256418728, 0.1373049809400126, 0.10483850756581878, 0.06385216381500157,
    0.0,
];

/// f_i = e^{−x_i} for each entry of [`ZIG_EXP_X`].
#[rustfmt::skip]
static ZIG_EXP_F: [f64; ZIG_LAYERS + 1] = [
    0.00016706669230796337, 0.0004541343538414966, 0.0009672692823271743, 0.0015362997803015726,
    0.002145967743718907, 0.0027887987935740757, 0.003460264777836904, 0.004157295120833797,
    0.004877655983542396, 0.005619642207205489, 0.006381905937319183, 0.007163353183634991,
    0.007963077438017043, 0.008780314985808977, 0.009614413642502212, 0.01046481018102998,
    0.0113310135978346, 0.012212592426255378, 0.013109164931254991, 0.014020391403181943,
    0.014945968011691148, 0.015885621839973156, 0.01683910682603994, 0.017806200410911355,
    0.018786700744696024, 0.01978042433800974, 0.020787204072578114, 0.02180688750428358,
    0.02283933540638524, 0.023884420511558174, 0.024942026419731787, 0.02601204664513422,
    0.027094383780955803, 0.028188948763978646, 0.02929566022463741, 0.03041444391046662,
    0.03154523217289362, 0.032687963508959555, 0.03384258215087436, 0.03500903769739743,
    0.03618728478193144, 0.03737728277295938, 0.03857899550307487, 0.03979239102337414,
    0.04101744138041484, 0.042254122413316254, 0.0435024135688882, 0.04476229773294329,
    0.046033761076175184, 0.04731679291318156, 0.048611385573379504, 0.04991753428270638,
    0.05123523705512628, 0.052564494593071685, 0.05390531019604608, 0.05525768967669703,
    0.05662164128374287, 0.05799717563120066, 0.05938430563342028, 0.06078304644547966,
    0.062193415408541036, 0.06361543199980738, 0.0650491177867538, 0.06649449638533982,
    0.06795159342193664, 0.06942043649872878, 0.07090105516237184, 0.07239348087570875,
    0.07389774699236475, 0.07541388873405841, 0.07694194317048052, 0.07848194920160644,
    0.0800339475423199, 0.08159798070923742, 0.0831740930096324, 0.08476233053236815,
    0.08636274114075693, 0.08797537446727023, 0.08960028191003289, 0.0912375166310402,
    0.09288713355604357, 0.09454918937605587, 0.09622374255043283, 0.09791085331149221,
    0.09961058367063713, 0.10132299742595363, 0.1030481601712577, 0.10478613930657016,
    0.10653700405000163, 0.10830082545103376, 0.11007767640518536, 0.11186763167005628,
    0.11367076788274429, 0.1154871635786335, 0.11731689921155553, 0.11916005717532764,
    0.12101672182667479, 0.12288697950954511, 0.12477091858083093, 0.12666862943751067,
    0.1285802045452282, 0.13050573846833077, 0.1324453279013875, 0.1343990717022136,
    0.13636707092642883, 0.13834942886358018, 0.1403462510748624, 0.14235764543247215,
    0.14438372216063472, 0.1464245938783449, 0.14848037564386674, 0.15055118500103984,
    0.1526371420274428, 0.15473836938446803, 0.15685499236936515, 0.15898713896931413,
    0.16113493991759195, 0.16329852875190173, 0.16547804187493592, 0.16767361861725008,
    0.16988540130252755, 0.17211353531531998, 0.1743581691713534, 0.17661945459049483,
    0.17889754657247828, 0.18119260347549626, 0.18350478709776744, 0.18583426276219708,
    0.18818119940425426, 0.19054576966319536, 0.1929281499767713, 0.1953285206795632,
    0.19774706610509882, 0.2001839746919112, 0.20263943909370896, 0.20511365629383765,
    0.20760682772422198, 0.21011915938898823, 0.21265086199297822, 0.21520215107537863,
    0.21777324714870047, 0.22036437584335944, 0.2229757680581201, 0.22560766011668396,
    0.22826029393071662, 0.23093391716962736, 0.2336287834374333, 0.23634515245705956,
    0.2390832902624491, 0.24184346939887713, 0.24462596913189202, 0.24743107566532754,
    0.25025908236886224, 0.2531102900156294, 0.2559850070304153, 0.2588835497490162,
    0.2618062426893629, 0.26475341883506215, 0.26772541993204474, 0.27072259679905997,
    0.2737453096528029, 0.2767939284485173, 0.27986883323697287, 0.28297041453878075,
    0.2860990737370768, 0.2892552234896777, 0.29243928816189263, 0.29565170428126125,
    0.29889292101558185, 0.3021634006756935, 0.30546361924459026, 0.3087940669345602,
    0.3121552487741796, 0.31554768522712895, 0.31897191284495724, 0.3224284849560892,
    0.32591797239355635, 0.32944096426413644, 0.3329980687618091, 0.3365899140286777,
    0.3402171490667802, 0.3438804447045026, 0.34758049462163715, 0.35131801643748345,
    0.3550937528667876, 0.35890847294875, 0.362762973354818, 0.3666580797815144,
    0.3705946484351462, 0.3745735676159024, 0.37859575940958107, 0.38266218149601006,
    0.38677382908413793, 0.3909317369847974, 0.39513698183329043, 0.39939068447523135,
    0.40369401253053055, 0.4080481831520327, 0.41245446599716146, 0.4169141864330032,
    0.4214287289976169, 0.4259995411430347, 0.43062813728845917, 0.4353161032156369,
    0.4400651008423542, 0.44487687341454885, 0.44975325116275533, 0.45469615747461584,
    0.459707615642138, 0.4647897562504265, 0.4699448252839603, 0.4751751930373777,
    0.48048336393045454, 0.48587198734188525, 0.49134386959403287, 0.4969019872415499,
    0.5025495018413481, 0.5082897764106432, 0.5141263938147489, 0.5200631773682339,
    0.5261042139836201, 0.5322538802630437, 0.5385168720028622, 0.5448982376724401,
    0.5514034165406417, 0.5580382822625879, 0.5648091929124006, 0.5717230486648262,
    0.5787873586028454, 0.5860103184772684, 0.5934009016917338, 0.6009689663652326,
    0.6087253820796223, 0.6166821809152079, 0.6248527387036662, 0.6332519942143664,
    0.6418967164272664, 0.6508058334145714, 0.6600008410790001, 0.6695063167319252,
    0.6793505722647658, 0.6895664961170784, 0.7001926550827886, 0.7112747608050765,
    0.7228676595935725, 0.735038092431424, 0.7478686219851957, 0.7614633888498968,
    0.7759568520401162, 0.7915276369724963, 0.808421651523009, 0.8269932966430511,
    0.8477855006239905, 0.8717043323812047, 0.9004699299257477, 0.9381436808621765,
    1.0,
];

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// Significance level of every Kolmogorov–Smirnov test below.
    const KS_LEVEL: f64 = 1e-3;

    /// The area of every ziggurat layer, e^{−r}·(r + 1): the base layer's
    /// rectangle [0, r) × [0, e^{−r}) plus the tail beyond r.
    const ZIG_EXP_V: f64 = 0.003949659822581557;

    /// An [`RngCore`] that returns its words in order.
    struct Scripted(Vec<u64>);

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            cast::u64_low32(self.next_u64() >> 32)
        }

        fn next_u64(&mut self) -> u64 {
            self.0.remove(0)
        }
    }

    fn exp1_cdf(x: f64) -> f64 {
        1.0 - (-x.max(0.0)).exp()
    }

    /// Asserts that `samples` pass a one-sample Kolmogorov–Smirnov test
    /// against the continuous `cdf` at [`KS_LEVEL`] (asymptotic critical
    /// value `sqrt(−ln(α/2)/2)/√n`).
    fn assert_ks(what: &str, mut samples: Vec<f64>, cdf: impl Fn(f64) -> f64) {
        samples.sort_by(f64::total_cmp);
        let n = samples.len() as f64;
        let d = samples
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let f = cdf(x);
                (f - i as f64 / n).max((i + 1) as f64 / n - f)
            })
            .fold(0.0, f64::max);
        let critical = (-(KS_LEVEL / 2.0).ln() / 2.0).sqrt() / n.sqrt();
        assert!(
            d < critical,
            "{what}: KS statistic {d} ≥ {critical} over {n} samples"
        );
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = rng_from_seed(123);
        let mut b = rng_from_seed(123);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = rng_from_seed(1);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let mut rng = rng_from_seed(2);
        let n = 100_000;
        let lam = 3.7;
        let xs: Vec<u64> = (0..n).map(|_| poisson(&mut rng, lam)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lam).abs() < 0.05, "mean {mean}");
        assert!((var - lam).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_large_lambda_moments() {
        let mut rng = rng_from_seed(3);
        let n = 50_000;
        let lam = 250.0;
        let xs: Vec<u64> = (0..n).map(|_| poisson(&mut rng, lam)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - lam).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero() {
        let mut rng = rng_from_seed(4);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    /// The law of [`standard_exponential`] over 2^21 draws: the mean, a
    /// KS test against Exp(1), the tail fraction P(X > r) against e^{−r}
    /// within 4σ with a KS test of the excess X − r against Exp(1), and
    /// every layer's strip [x_{i+1}, x_i) hit.
    #[test]
    fn exponential_mean() {
        let mut rng = rng_from_seed(5);
        let n = 1 << 21;
        let xs: Vec<f64> = (0..n).map(|_| standard_exponential(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 4.0 / (n as f64).sqrt(), "mean {mean}");

        let excess: Vec<f64> = xs
            .iter()
            .filter(|&&x| x >= ZIG_EXP_R)
            .map(|x| x - ZIG_EXP_R)
            .collect();
        let p_tail = (-ZIG_EXP_R).exp();
        let expected = p_tail * n as f64;
        let sigma = (expected * (1.0 - p_tail)).sqrt();
        let tail = excess.len() as f64;
        assert!(
            (tail - expected).abs() < 4.0 * sigma,
            "{tail} draws beyond r, expected {expected}"
        );
        assert_ks("X − r beyond r", excess, exp1_cdf);

        // Strip i ≥ 1 is [x_{i+1}, x_i); "strip" 0 is the tail [r, ∞).
        let mut hits = [0u64; ZIG_LAYERS];
        for &x in &xs {
            hits[ZIG_EXP_X[1..].partition_point(|&edge| edge > x)] += 1;
        }
        assert!(
            hits.iter().all(|&h| h > 0),
            "a layer's strip was never hit: {hits:?}"
        );
        assert_ks("Exp(1)", xs, exp1_cdf);
    }

    /// The word's low byte picks the layer and its top 53 bits the
    /// uniform: a word of layer i with U = 1/2 draws x_i / 2 exactly. The
    /// fast path accepts it in every layer but the top one (x_256 = 0),
    /// whose wedge test accepts it with a second word of U ≈ 1.
    #[test]
    fn low_byte_picks_every_layer() {
        for (layer, &edge) in ZIG_EXP_X[..ZIG_LAYERS].iter().enumerate() {
            let word = 1 << 63 | cast::usize_to_u64(layer);
            let x = standard_exponential(&mut Scripted(vec![word, u64::MAX]));
            assert_eq!(x, edge / 2.0, "layer {layer}");
        }
    }

    /// The tables: x_1 = r, x_256 = 0, f_i = e^{−x_i}, the base layer's
    /// x_0·f_1 = v, and every layer i in 1‥254 of area x_i·(f_{i+1} − f_i)
    /// = v within 4 roundings of its subtraction (x_i·ε·f_{i+1}; the
    /// largest is 2.1). The recursion does not set the top layer's area
    /// x_255·(1 − f_255): it closes within 6e-14 of v.
    #[test]
    fn ziggurat_tables_hold_their_identities() {
        assert_eq!(ZIG_EXP_X[1], ZIG_EXP_R);
        assert_eq!(ZIG_EXP_X[ZIG_LAYERS], 0.0);
        for (i, (&x, &f)) in ZIG_EXP_X.iter().zip(&ZIG_EXP_F).enumerate() {
            assert!(
                (f - (-x).exp()).abs() <= f64::EPSILON * f,
                "f_{i} = {f} vs e^-{x}"
            );
        }
        assert!((ZIG_EXP_X[0] * ZIG_EXP_F[1] - ZIG_EXP_V).abs() <= f64::EPSILON * ZIG_EXP_V);
        for i in 1..ZIG_LAYERS {
            let area = ZIG_EXP_X[i] * (ZIG_EXP_F[i + 1] - ZIG_EXP_F[i]);
            let tolerance = if i + 1 < ZIG_LAYERS {
                4.0 * ZIG_EXP_X[i] * f64::EPSILON * ZIG_EXP_F[i + 1]
            } else {
                1e-13 * ZIG_EXP_V
            };
            assert!(
                (area - ZIG_EXP_V).abs() <= tolerance,
                "layer {i}: area {area}"
            );
        }
    }

    /// The largest draw: the base layer's candidate beyond r, then the
    /// smallest tail uniform 1 − U = 2^−53, gives r − ln 2^−53 < 44.44.
    #[test]
    fn largest_draw_is_below_44_44() {
        let x = standard_exponential(&mut Scripted(vec![u64::MAX << 8, u64::MAX]));
        assert!(x > 44.43 && x < 44.44, "{x}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = rng_from_seed(6);
        assert_eq!(binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(binomial(&mut rng, 10, 1.0), 10);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
    }

    #[test]
    fn binomial_moments_small_and_large() {
        let mut rng = rng_from_seed(7);
        let n_trials = 20_000;
        for &(n, p) in &[(50u64, 0.3), (10_000u64, 0.4)] {
            let mean = (0..n_trials).map(|_| binomial(&mut rng, n, p)).sum::<u64>() as f64
                / n_trials as f64;
            let expect = n as f64 * p;
            assert!(
                (mean - expect).abs() / expect < 0.02,
                "mean {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = rng_from_seed(8);
        assert!(!bernoulli(&mut rng, 0.0));
        assert!(bernoulli(&mut rng, 1.0));
        assert!(!bernoulli(&mut rng, -0.3));
        assert!(bernoulli(&mut rng, 1.7));
    }

    #[test]
    fn discrete_respects_weights() {
        let mut rng = rng_from_seed(10);
        let w = [1.0, 0.0, 3.0];
        let n = 100_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[discrete(&mut rng, &w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let frac2 = counts[2] as f64 / n as f64;
        assert!((frac2 - 0.75).abs() < 0.01, "frac {frac2}");
    }

    #[test]
    #[should_panic(expected = "all weights zero")]
    fn discrete_rejects_zero_weights() {
        let mut rng = rng_from_seed(11);
        let _ = discrete(&mut rng, &[0.0, 0.0]);
    }

    #[test]
    fn split_seed_is_deterministic_and_collision_free() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            for shard in 0..64u64 {
                assert_eq!(split_seed(seed, shard), split_seed(seed, shard));
                assert!(
                    seen.insert(split_seed(seed, shard)),
                    "collision at seed {seed} shard {shard}"
                );
            }
        }
    }

    #[test]
    fn sibling_streams_pass_moment_checks() {
        // Each shard stream must itself look uniform: mean 1/2,
        // variance 1/12 for U(0,1).
        let n = 50_000;
        for shard in 0..8u64 {
            let mut rng = rng_from_seed(split_seed(42, shard));
            let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            assert!((mean - 0.5).abs() < 0.01, "shard {shard} mean {mean}");
            assert!((var - 1.0 / 12.0).abs() < 0.005, "shard {shard} var {var}");
        }
    }

    #[test]
    fn sibling_streams_are_uncorrelated() {
        // Pearson correlation between adjacent-shard streams and between
        // each shard stream and the parent stream must be ~0.
        let n = 50_000;
        let draw = |seed: u64| -> Vec<f64> {
            let mut rng = rng_from_seed(seed);
            (0..n).map(|_| rng.gen::<f64>()).collect()
        };
        let correlation = |a: &[f64], b: &[f64]| -> f64 {
            let ma = a.iter().sum::<f64>() / a.len() as f64;
            let mb = b.iter().sum::<f64>() / b.len() as f64;
            let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
            let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
            let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
            cov / (va * vb).sqrt()
        };
        let parent = draw(42);
        let shards: Vec<Vec<f64>> = (0..6).map(|s| draw(split_seed(42, s))).collect();
        // ~3 sigma for n = 50_000 independent samples is ~0.013; use a
        // comfortable 0.02 bound.
        for (s, stream) in shards.iter().enumerate() {
            let r = correlation(&parent, stream);
            assert!(r.abs() < 0.02, "parent vs shard {s}: r = {r}");
        }
        for pair in shards.windows(2) {
            let r = correlation(&pair[0], &pair[1]);
            assert!(r.abs() < 0.02, "adjacent shards: r = {r}");
        }
    }

    #[test]
    fn split_seed_differs_from_parent_stream() {
        // A shard stream must not alias the parent stream shifted by a
        // few draws (the classic `seed + shard` mistake).
        for shard in 0..4u64 {
            let mut parent = rng_from_seed(42);
            let mut child = rng_from_seed(split_seed(42, shard));
            let child_first = child.gen::<u64>();
            let aliased = (0..16).any(|_| parent.gen::<u64>() == child_first);
            assert!(!aliased, "shard {shard} aliases the parent stream");
        }
    }
}
