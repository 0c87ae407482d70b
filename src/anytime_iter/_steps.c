/* Chunk functions, generator seeding and draw loops of the batched engines
 * in anytime_iter.algorithms, and the LIL chunk of anytime_iter.harness.
 *
 * sgd_chunk, pca_chunk, rm_chunk and ridge_chunk each run one engine
 * chunk of any width in one call, and lil_chunk one chunk of the
 * LIL statistic's root finding, replication-major: the outer loop
 * runs over blocks of LANES replications and the inner loop over the
 * chunk's m steps.
 * Each replication advances its iterate in locals and writes its losses, and
 * its noise channels when the engine records them, into row i of row-strided
 * (n, m) outputs.  Each chunk draws each replication's values from its own
 * generator, inline, as it steps; no draw chunk and no trajectory buffer is
 * built.  Inputs are C-contiguous float64 unless said otherwise; the Python
 * loader checks dtypes, strides and shapes before calling.
 *
 * Every function performs the IEEE operations of the numpy code it
 * replaces, one by one and in the same order, so its results are bit for bit
 * those of numpy.  It must be compiled without floating-point contraction
 * (-ffp-contract=off) and without -ffast-math, so that no multiply-add is
 * fused and no sum is reassociated.  Coordinate sums add as np.sum does at
 * every width: fewer than 8 terms left to right, like _sum_last in
 * _reference.py, and from 8 terms on with numpy's pairwise sum (pairwise
 * below).  A sum of general terms ends with +0.0, which turns an all -0.0
 * sum into +0.0 as numpy does, and a sum of squares does not.
 *
 * The library owns the replications' generators: seed_states turns each
 * seed, its entropy words or its SeedSequence's pool, into the PCG64 state
 * numpy's default_rng would build from it, and the chunks and draw loops
 * step those states inline, with numpy's normal, uniform and sign
 * transforms (see "Generators" and "Draws" below); ridge_chunk also jumps a
 * copy of each state ahead (pcg_advance).  No numpy function is
 * called and no numpy struct is declared.  lil_chunk steps the root-finding
 * replications of the harness's LIL statistic and folds the statistic into
 * its dyadic block maxima as it goes, with libm's log log t.  recursion_failure
 * and pca_failure decide the path-wise recursion checks of
 * anytime_iter.recursion and anytime_iter.algorithms in one pass over a
 * path (see "Recursion checks" below).
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))

/* sum_j x[j]*v[j] over n >= 8 terms as numpy's pairwise_sum, the sum behind
 * np.add.reduce, adds them: up to 128 terms in 8 running sums, r[k] taking
 * the terms k, k+8, ..., combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
 * then the terms past the last multiple of 8 left to right; above 128 terms,
 * the sums of the first n/2 terms, rounded down to a multiple of 8, and of
 * the rest. */
static double pairwise(const double *x, const double *v, long n)
{
    if (n > 128) {
        const long half = n / 2 - n / 2 % 8;
        return pairwise(x, v, half) + pairwise(x + half, v + half, n - half);
    }
    double r[8];
    for (long k = 0; k < 8; k++)
        r[k] = x[k] * v[k];
    long i = 8;
    for (; i < n - n % 8; i += 8)
        for (long k = 0; k < 8; k++)
            r[k] += x[i + k] * v[i + k];
    double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        s += x[i] * v[i];
    return s;
}

/* sum_j x[j]*v[j], closed with +0.0 (also for d = 1, where np.sum adds it) */
INLINE double dot(const double *x, const double *v, long d)
{
    if (d >= 8)
        return pairwise(x, v, d) + 0.0;
    double s = x[0] * v[0];
    for (long j = 1; j < d; j++)
        s += x[j] * v[j];
    return s + 0.0;
}

/* sum_j a[j]^2; squares are never -0.0, so a closing +0.0 would change nothing */
INLINE double sum_sq(const double *a, long d)
{
    if (d >= 8)
        return pairwise(a, a, d);
    double s = a[0] * a[0];
    for (long j = 1; j < d; j++)
        s += a[j] * a[j];
    return s;
}

/* Pull w back onto the sphere of the given radius when |w|^2 > rr;
 * returns 1 if it moved. */
INLINE long project(double *w, long d, double radius, double rr)
{
    double r2 = sum_sq(w, d);
    if (!(r2 > rr))
        return 0;
    double scale = radius / sqrt(r2);
    for (long j = 0; j < d; j++)
        w[j] *= scale;
    return 1;
}

/* Generators.  Each replication's generator is a row of STATE_WORDS
 * uint64 values, the fields of numpy's PCG64 state dict in order: the high
 * and low halves of the 128-bit state, the high and low halves of the
 * increment, has_uint32 and uinteger, the spare half of a 64-bit output that
 * the next 32-bit draw returns.  PCG64 (O'Neill 2014, "PCG: A Family of
 * Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
 * Generation"), as numpy's pcg64.h implements it: each output steps the
 * 128-bit LCG state = state*PCG_MULT + inc, then returns the XSL-RR output of
 * the new state, (hi ^ lo) rotated right by the top 6 bits of hi.  The
 * chunks load a block's rows into locals, step them there and store them
 * back, so no state is read through memory per draw and no lock is needed:
 * each call owns the rows it is given. */
#define STATE_WORDS 6

typedef unsigned __int128 u128;

#define PCG_MULT (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

typedef struct {
    u128 state, inc;
    uint32_t has_uint32, uinteger;
    /* not NULL: a cursor into raw outputs replayed in order instead of
     * PCG64's (only normal_fill sets it, to script the ziggurat's paths).
     * The field itself never changes, so elsewhere the compiler sees the
     * constant NULL and drops the test. */
    const uint64_t **script;
} pcg64_t;

INLINE pcg64_t pcg_load(const uint64_t *row)
{
    pcg64_t g = {((u128)row[0] << 64) | row[1], ((u128)row[2] << 64) | row[3],
                 (uint32_t)row[4], (uint32_t)row[5], NULL};
    return g;
}

INLINE void pcg_store(uint64_t *row, const pcg64_t *g)
{
    row[0] = (uint64_t)(g->state >> 64);
    row[1] = (uint64_t)g->state;
    row[2] = (uint64_t)(g->inc >> 64);
    row[3] = (uint64_t)g->inc;
    row[4] = g->has_uint32;
    row[5] = g->uinteger;
}

/* pcg64_next64 */
INLINE uint64_t next64(pcg64_t *g)
{
    if (g->script)
        return *(*g->script)++;
    g->state = g->state * PCG_MULT + g->inc;
    const uint64_t hi = (uint64_t)(g->state >> 64), x = hi ^ (uint64_t)g->state;
    const unsigned rot = (unsigned)(hi >> 58);
    return (x >> rot) | (x << ((-rot) & 63));
}

/* pcg64_next_double: the top 53 bits of an output, times 2^-53 */
INLINE double next_double(pcg64_t *g)
{
    return (double)(next64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* pcg64_next32: the spare high half of the last output, if there is one,
 * else the low half of a new output, keeping its high half */
INLINE uint32_t next32(pcg64_t *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    const uint64_t r = next64(g);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(r >> 32);
    return (uint32_t)r;
}

/* The LCG state after delta more steps, in O(log delta) multiplications
 * (Brown 1994, "Random Number Generation with Arbitrary Strides"), as
 * numpy's pcg64_advance_r, behind PCG64.advance(delta), forms it. */
INLINE u128 pcg_advance(u128 state, u128 inc, unsigned long delta)
{
    u128 acc_mult = 1, acc_plus = 0, cur_mult = PCG_MULT, cur_plus = inc;
    for (; delta; delta >>= 1) {
        if (delta & 1) {
            acc_mult *= cur_mult;
            acc_plus = acc_plus * cur_mult + cur_plus;
        }
        cur_plus = (cur_mult + 1) * cur_plus;
        cur_mult *= cur_mult;
    }
    return acc_mult * state + acc_plus;
}

/* SeedSequence's hash constants (numpy/random/bit_generator.pyx) */
#define SS_INIT_A 0x43b0d7e5U
#define SS_MULT_A 0x931e8875U
#define SS_INIT_B 0x8b51f9ddU
#define SS_MULT_B 0x58f38dedU
#define SS_MIX_L 0xca01f9ddU
#define SS_MIX_R 0x4973f715U
#define SS_POOL 4 /* DEFAULT_POOL_SIZE, the pool of SeedSequence(entropy) */

/* SeedSequence's hashmix: v hashed with the running constant *h, which it
 * advances */
INLINE uint32_t hashmix(uint32_t v, uint32_t *h)
{
    v ^= *h;
    *h *= SS_MULT_A;
    v *= *h;
    return v ^ v >> 16;
}

/* SeedSequence's mix */
INLINE uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t r = SS_MIX_L * x - SS_MIX_R * y;
    return r ^ r >> 16;
}

/* pool receives what SeedSequence.mix_entropy makes of n entropy words:
 * the first SS_POOL words hashed (0 past the last), every word then mixed
 * with the hash of every other, then each word past the first SS_POOL
 * mixed into every pool word. */
static void mix_entropy(uint32_t pool[SS_POOL], const uint32_t *words, long n)
{
    uint32_t h = SS_INIT_A;
    for (long i = 0; i < SS_POOL; i++)
        pool[i] = hashmix(i < n ? words[i] : 0, &h);
    for (long src = 0; src < SS_POOL; src++)
        for (long dst = 0; dst < SS_POOL; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &h));
    for (long src = SS_POOL; src < n; src++)
        for (long dst = 0; dst < SS_POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(words[src], &h));
}

/* out, (n, STATE_WORDS), receives the state of default_rng(seed) for each of
 * n seeds, given by words: row i's |sizes[i]| words follow row i-1's.  A
 * size k >= 0 gives the k entropy words of an int seed or a sequence of
 * them, as SeedSequence assembles them, which mix_entropy turns into the
 * pool of SeedSequence(seed); a size -k gives the k-word pool of a
 * SeedSequence.  SeedSequence.generate_state(4, np.uint64) hashes 8 words
 * of the cycled pool, paired low word first into 4 uint64 s; PCG64 seeds
 * with state s[0]:s[1] and sequence s[2]:s[3] (pcg64_set_seed): state 0,
 * inc = 2*sequence + 1, one step, state += seed, one step; its spare half
 * word starts empty. */
void seed_states(uint64_t *out, const uint32_t *words, const long *sizes, long n)
{
    for (long i = 0; i < n; i++) {
        const long k = sizes[i] < 0 ? -sizes[i] : sizes[i];
        uint32_t mixed[SS_POOL];
        const uint32_t *pool = words;
        long size = k;
        if (sizes[i] >= 0) {
            mix_entropy(mixed, words, k);
            pool = mixed;
            size = SS_POOL;
        }
        uint32_t hash = SS_INIT_B;
        uint64_t s[4] = {0, 0, 0, 0};
        for (long w = 0; w < 8; w++) {
            uint32_t v = pool[w % size] ^ hash;
            hash *= SS_MULT_B;
            v *= hash;
            v ^= v >> 16;
            s[w / 2] |= (uint64_t)v << (32 * (w % 2));
        }
        pcg64_t g = {0, (((u128)s[2] << 64) | s[3]) << 1 | 1, 0, 0, NULL};
        g.state = g.inc;
        g.state += ((u128)s[0] << 64) | s[1];
        g.state = g.state * PCG_MULT + g.inc;
        pcg_store(out + i * STATE_WORDS, &g);
        words += k;
    }
}

/* Draws.  normal, uniform and sign perform the transforms of numpy's
 * random_standard_normal, random_uniform and random_bounded_uint64_fill,
 * the functions behind Generator.standard_normal, Generator.uniform and
 * Generator.integers(0, 2): the same IEEE operations on the same outputs of
 * PCG64, so every value is numpy's and every generator ends in the state
 * numpy leaves.  Each generator gets the draws its Generator method makes
 * for a chunk, in the same order.  The loader checks seed_states,
 * normal_fill and sign_draw against numpy before it uses the library.  The
 * helpers below serve both the chunk functions and the draw loops; in the
 * draw loops out is (rows, n, width), and row r of generator j starts at
 * out + (r*n + j)*width.  The draw loops' sphere normals are scaled in
 * numpy (StepKernels.sphere). */

/* The 256-layer ziggurat of numpy's random_standard_normal (Marsaglia and
 * Tsang 2000).  The tables ki_double, wi_double and fi_double are copied as
 * hex literals from the local symbols of those names in .rodata of
 * src_distributions_distributions.c.o, the member of numpy 2.4.6's
 * numpy/random/lib/libnpyrandom.a that defines random_standard_normal
 * (extracted with ar x, located with objdump -t), and the constants
 * ziggurat_nor_r (3.6541528853610088) and ziggurat_nor_inv_r = 1/r from the
 * instructions of that function. */
static const double ziggurat_nor_r = 0x1.d3bb48209ad33p+1;
static const double ziggurat_nor_inv_r = 0x1.183aa6c20e8c1p-2;

static const uint64_t ki_double[256] = {
    0x000ef33d8025ef6a, 0x0000000000000000, 0x000c08be98fbc6a8, 0x000da354fabd8142,
    0x000e51f67ec1eeea, 0x000eb255e9d3f77e, 0x000eef4b817ecab9, 0x000f19470afa44aa,
    0x000f37ed61ffcb18, 0x000f4f469561255c, 0x000f61a5e41ba396, 0x000f707a755396a4,
    0x000f7cb2ec28449a, 0x000f86f10c6357d3, 0x000f8fa6578325de, 0x000f9724c74dd0da,
    0x000f9da907dbf509, 0x000fa360f581fa74, 0x000fa86fde5b4bf8, 0x000facf160d354dc,
    0x000fb0fb6718b90f, 0x000fb49f8d5374c6, 0x000fb7ec2366fe77, 0x000fbaece9a1e50e,
    0x000fbdab9d040bed, 0x000fc03060ff6c57, 0x000fc2821037a248, 0x000fc4a67ae25bd1,
    0x000fc6a2977aee31, 0x000fc87aa92896a4, 0x000fca325e4bde85, 0x000fcbcce902231a,
    0x000fcd4d12f839c4, 0x000fceb54d8fec99, 0x000fd007bf1dc930, 0x000fd1464dd6c4e6,
    0x000fd272a8e2f450, 0x000fd38e4ff0c91e, 0x000fd49a9990b478, 0x000fd598b8920f53,
    0x000fd689c08e99ec, 0x000fd76ea9c8e832, 0x000fd848547b08e8, 0x000fd9178bad2c8c,
    0x000fd9dd07a7add2, 0x000fda9970105e8c, 0x000fdb4d5dc02e20, 0x000fdbf95c5bfcd0,
    0x000fdc9debb99a7d, 0x000fdd3b8118729d, 0x000fddd288342f90, 0x000fde6364369f64,
    0x000fdeee708d514e, 0x000fdf7401a6b42e, 0x000fdff46599ed40, 0x000fe06fe4bc24f2,
    0x000fe0e6c225a258, 0x000fe1593c28b84c, 0x000fe1c78cbc3f99, 0x000fe231e9db1caa,
    0x000fe29885da1b91, 0x000fe2fb8fb54186, 0x000fe35b33558d4a, 0x000fe3b799d0002a,
    0x000fe410e99ead7f, 0x000fe46746d47734, 0x000fe4bad34c095c, 0x000fe50baed29524,
    0x000fe559f74ebc78, 0x000fe5a5c8e41212, 0x000fe5ef3e138689, 0x000fe6366fd91078,
    0x000fe67b75c6d578, 0x000fe6be661e11aa, 0x000fe6ff55e5f4f2, 0x000fe73e5900a702,
    0x000fe77b823e9e39, 0x000fe7b6e37070a2, 0x000fe7f08d774243, 0x000fe8289053f08c,
    0x000fe85efb35173a, 0x000fe893dc840864, 0x000fe8c741f0cebc, 0x000fe8f9387d4ef6,
    0x000fe929cc879b1d, 0x000fe95909d388ea, 0x000fe986fb939aa2, 0x000fe9b3ac714866,
    0x000fe9df2694b6d5, 0x000fea0973abe67c, 0x000fea329cf166a4, 0x000fea5aab32952c,
    0x000fea81a6d5741a, 0x000feaa797de1cf0, 0x000feacc85f3d920, 0x000feaf07865e63c,
    0x000feb13762fec13, 0x000feb3585fe2a4a, 0x000feb56ae3162b4, 0x000feb76f4e284fa,
    0x000feb965fe62014, 0x000febb4f4cf9d7c, 0x000febd2b8f449d0, 0x000febefb16e2e3e,
    0x000fec0be31ebde8, 0x000fec2752b15a15, 0x000fec42049dafd3, 0x000fec5bfd29f196,
    0x000fec75406ceef4, 0x000fec8dd2500cb4, 0x000feca5b6911f12, 0x000fecbcf0c427fe,
    0x000fecd38454fb15, 0x000fece97488c8b3, 0x000fecfec47f91b7, 0x000fed1377358528,
    0x000fed278f844903, 0x000fed3b10242f4c, 0x000fed4dfbad586e, 0x000fed605498c3dd,
    0x000fed721d414fe8, 0x000fed8357e4a982, 0x000fed9406a42cc8, 0x000feda42b85b704,
    0x000fedb3c8746ab4, 0x000fedc2df416652, 0x000fedd171a46e52, 0x000feddf813c8ad3,
    0x000feded0f909980, 0x000fedfa1e0fd414, 0x000fee06ae124bc4, 0x000fee12c0d95a06,
    0x000fee1e579006e0, 0x000fee29734b6524, 0x000fee34150ae4bc, 0x000fee3e3db89b3c,
    0x000fee47ee2982f4, 0x000fee51271db086, 0x000fee59e9407f41, 0x000fee623528b42e,
    0x000fee6a0b5897f1, 0x000fee716c3e077a, 0x000fee7858327b82, 0x000fee7ecf7b06ba,
    0x000fee84d2484ab2, 0x000fee8a60b66343, 0x000fee8f7accc851, 0x000fee94207e25da,
    0x000fee9851a829ea, 0x000fee9c0e13485c, 0x000fee9f557273f4, 0x000feea22762ccae,
    0x000feea4836b42ac, 0x000feea668fc2d71, 0x000feea7d76ed6fa, 0x000feea8ce04fa0a,
    0x000feea94be8333b, 0x000feea950296410, 0x000feea8d9c0075e, 0x000feea7e7897654,
    0x000feea678481d24, 0x000feea48aa29e83, 0x000feea21d22e4da, 0x000fee9f2e352024,
    0x000fee9bbc26af2e, 0x000fee97c524f2e4, 0x000fee93473c0a3a, 0x000fee8e40557516,
    0x000fee88ae369c7a, 0x000fee828e7f3dfd, 0x000fee7bdea7b888, 0x000fee749bff37ff,
    0x000fee6cc3a9bd5e, 0x000fee64529e007e, 0x000fee5b45a32888, 0x000fee51994e57b6,
    0x000fee474a0006cf, 0x000fee3c53e12c50, 0x000fee30b2e02ad8, 0x000fee2462ad8205,
    0x000fee175eb83c5a, 0x000fee09a22a1447, 0x000fedfb27e349cc, 0x000fedebea76216c,
    0x000feddbe422047e, 0x000fedcb0ece39d3, 0x000fedb964042cf4, 0x000feda6dce938c9,
    0x000fed937237e98d, 0x000fed7f1c38a836, 0x000fed69d2b9c02b, 0x000fed538d06ae00,
    0x000fed3c41dea422, 0x000fed23e76a2fd8, 0x000fed0a732fe644, 0x000fecefda07fe34,
    0x000fecd4100eb7b8, 0x000fecb708956eb4, 0x000fec98b61230c1, 0x000fec790a0da978,
    0x000fec57f50f31fe, 0x000fec356686c962, 0x000fec114cb4b335, 0x000febeb948e6fd0,
    0x000febc429a0b692, 0x000feb9af5ee0cdc, 0x000feb6fe1c98542, 0x000feb42d3ad1f9e,
    0x000feb13b00b2d4b, 0x000feae2591a02e9, 0x000feaaeae992257, 0x000fea788d8ee326,
    0x000fea3fcffd73e5, 0x000fea044c8dd9f6, 0x000fe9c5d62f563b, 0x000fe9843ba947a4,
    0x000fe93f471d4728, 0x000fe8f6bd76c5d6, 0x000fe8aa5dc4e8e6, 0x000fe859e07ab1ea,
    0x000fe804f690a940, 0x000fe7ab488233c0, 0x000fe74c751f6aa5, 0x000fe6e8102aa202,
    0x000fe67da0b6abd8, 0x000fe60c9f38307e, 0x000fe5947338f742, 0x000fe51470977280,
    0x000fe48bd436f458, 0x000fe3f9bffd1e37, 0x000fe35d35eeb19c, 0x000fe2b5122fe4fe,
    0x000fe20003995557, 0x000fe13c82788314, 0x000fe068c4ee67b0, 0x000fdf82b02b71aa,
    0x000fde87c57efeaa, 0x000fdd7509c63bfd, 0x000fdc46e529bf13, 0x000fdaf8f82e0282,
    0x000fd985e1b2ba75, 0x000fd7e6ef48cf04, 0x000fd613adbd650b, 0x000fd40149e2f012,
    0x000fd1a1a7b4c7ac, 0x000fcee204761f9e, 0x000fcba8d85e11b2, 0x000fc7d26ecd2d22,
    0x000fc32b2f1e22ed, 0x000fbd6581c0b83a, 0x000fb606c4005434, 0x000fac40582a2874,
    0x000f9e971e014598, 0x000f89fa48a41dfc, 0x000f66c5f7f0302c, 0x000f1a5a4b331c4a
};
static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51
};
static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10
};

/* One output r of PCG64 as the ziggurat reads it: the layer r & 0xff, the
 * sign bit 8 and the 52 bits rabs above it, and x = rabs*wi_double[layer]
 * with that sign, set by an XOR of the sign bit where numpy negates x on a
 * branch. */
INLINE double zig_x(uint64_t r, uint64_t *rabs)
{
    *rabs = (r >> 9) & 0x000fffffffffffff;
    double x = (double)(int64_t)*rabs * wi_double[r & 0xff];
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= ((r >> 8) & 1) << 63;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* The rest of numpy's loop after an output r, with its rabs and x, fell
 * outside its layer's rectangle: the tail beyond ziggurat_nor_r for layer 0,
 * the wedge test for the others, and a new output when these reject.  Not
 * inlined: normal hands it a copy of the generator, so that no lane's
 * generator in the chunks has its address taken. */
static __attribute__((noinline)) double normal_rest(pcg64_t *g, uint64_t r, uint64_t rabs,
                                                    double x)
{
    for (;;) {
        const int idx = r & 0xff;
        if (idx == 0) {
            for (;;) {
                /* log1p(-U) = log(1 - U), which never sees 0 */
                const double xx = -ziggurat_nor_inv_r * log1p(-next_double(g));
                const double yy = -log1p(-next_double(g));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(ziggurat_nor_r + xx) : ziggurat_nor_r + xx;
            }
        }
        const double f = fi_double[idx];
        if ((fi_double[idx - 1] - f) * next_double(g) + f < exp(-0.5 * x * x))
            return x;
        r = next64(g);
        x = zig_x(r, &rabs);
        if (rabs < ki_double[r & 0xff])
            return x;
    }
}

/* One standard normal, as random_standard_normal draws it; about 99.3 % of
 * the draws return from the first output's rectangle. */
INLINE double normal(pcg64_t *g)
{
    const uint64_t r = next64(g);
    uint64_t rabs;
    const double x = zig_x(r, &rabs);
    if (rabs < ki_double[r & 0xff])
        return x;
    pcg64_t rest = *g;
    const double y = normal_rest(&rest, r, rabs, x);
    g->state = rest.state; /* the only field the rest of the loop changes */
    return y;
}

/* n standard normals from the generator in row gen, as
 * Generator.standard_normal(n) draws them.  With a script, the normals come
 * from its raw outputs instead, in order, through the same ziggurat; gen is
 * left alone, and the return value is how many outputs they took. */
long normal_fill(uint64_t *gen, long n, double *out, const uint64_t *script)
{
    const uint64_t *cursor = script;
    pcg64_t g = pcg_load(gen);
    g.script = script ? &cursor : NULL;
    for (long i = 0; i < n; i++)
        out[i] = normal(&g);
    if (script)
        return cursor - script;
    pcg_store(gen, &g);
    return 0;
}

/* A uniform on [low, low + range), as random_uniform draws it. */
INLINE double uniform(pcg64_t *g, double low, double range)
{
    return low + range * next_double(g);
}

/* One sign u*2 - 1, with u drawn as integers(0, 2) draws it for its default
 * int64 dtype: random_bounded_uint64_fill with range 1 takes Lemire's
 * 32-bit step, the high half of next32 * 2, whose rejection threshold
 * (2^32 - 2) % 2 is 0, so no draw is rejected and u is the top bit of
 * next32. */
INLINE double sign(pcg64_t *g)
{
    const double s = (double)(next32(g) >> 31) * 2.0;
    return s - 1.0;
}

/* One row of width signs; scale, when not NULL, multiplies coordinate w by
 * scale[w] last, as the PCA draws *= sqrt(eigs) does.  The rows of a chunk
 * draw in order the values of the one fill integers makes per generator. */
INLINE void sign_row(double *o, pcg64_t *g, const double *scale, long width)
{
    for (long w = 0; w < width; w++) {
        const double s = sign(g);
        o[w] = scale ? s * scale[w] : s;
    }
}

/* rows*width standard normals per generator: generator j fills out[:, j, :]
 * row by row, as Generator.standard_normal((rows, width)) does. */
void normal_draw(double *out, uint64_t *gens, long rows, long n, long width)
{
    for (long j = 0; j < n; j++) {
        pcg64_t g = pcg_load(gens + j * STATE_WORDS);
        for (long r = 0; r < rows; r++)
            for (long w = 0; w < width; w++)
                out[(r * n + j) * width + w] = normal(&g);
        pcg_store(gens + j * STATE_WORDS, &g);
    }
}

void sign_draw(double *out, uint64_t *gens, const double *scale, long rows, long n, long width)
{
    for (long j = 0; j < n; j++) {
        pcg64_t g = pcg_load(gens + j * STATE_WORDS);
        for (long r = 0; r < rows; r++)
            sign_row(out + (r * n + j) * width, &g, scale, width);
        pcg_store(gens + j * STATE_WORDS, &g);
    }
}

/* Chunks.  Each function advances the n replications of an engine by the m
 * steps of one chunk, replication-major: the outer loop runs over blocks of
 * LANES replications and the inner loop over the steps.  Replication i draws
 * its chunk's values from its generator, row i of gens, steps its iterate,
 * held in locals, m times from state row i, writes its m losses into row i
 * of loss (row i starts at loss + i*ld_loss)
 * and, when the channel pointers are not NULL, its recorded channels into
 * row i of each channel array (at i*ld, or i*ld_pl for SGD's loss_pl), and
 * leaves its last iterate in state row i and its generator in gens row i.
 * While recording, it prefetches its loss and channel rows for writing
 * (PREFETCH below).  The outputs are row-strided column slices of the
 * engine's (N, T) results, or of a chunk buffer.  Each step of
 * a replication depends on the one before, through divisions and square
 * roots, so each step runs over the block's lanes operation by operation,
 * and the independent chains overlap.  The draws too: SGD draws a step's
 * normals, and ridge its signs, value-major, coordinate j of every lane
 * before coordinate j+1 of any; SGD then scales each lane onto its sphere.
 * Drawn lane by lane, one lane's normals and its square root sit together
 * in program order, and
 * the next lane's independent draws lie beyond the reach of the processor's
 * out-of-order window; value-major, the lanes' generator chains overlap.
 * Each generator still makes the same draws in the same order, so the
 * values and its final state are unchanged.
 *
 * Each chunk body is one inlined function of the width d, which BY_WIDTH
 * builds once for d = 2, once for d = 4 and once for every other d.
 *
 * LANES is a compile-time constant and every loop that draws from or
 * loads or stores a block's generators is unrolled (EACH_LANE), so each
 * lane's generator lives in registers or in fixed stack slots, not in an
 * array indexed at run time; normal hands its rare paths a copy, so no
 * generator has its address taken.  SGD and root finding unroll their
 * other lane loops too, which keeps their iterates out of memory as well;
 * PCA's and ridge's steps run no faster unrolled, and would lengthen the
 * build.
 * A partial last block runs through the same body: its ghost lanes repeat
 * the block's first replication, from copies of its iterate and generator,
 * so they write the same bytes to the same places, count no projection and
 * store nothing back.
 *
 * Each value is the numpy expression of the reference chunk
 * (_reference.Reference's sgd_chunk, pca_chunk, rm_chunk and ridge_chunk),
 * evaluated left to right with its parentheses; constants formed in Python
 * (rr, half_mu, range, ridge's scale, root finding's rm_consts) come in as
 * arguments, since Python's ** calls libm's pow.  Replications are independent and
 * each generator gets the draws the reference's chunk draw makes, in the
 * same order, so the results are the reference's, with no draw chunk and no
 * trajectory buffer in memory. */
#define LANES 8
#define EACH_LANE(l) _Pragma("GCC unroll 8") for (long l = 0; l < LANES; l++)

/* The recording branches of sgd_rows, pca_rows and rm_chunk ask for write
 * access to each lane's output rows, the losses and every channel, AHEAD
 * values ahead of step k, every 8 steps, which is one 64-byte line of each
 * row; the guard keeps the requests inside the chunk's columns.  A recorded
 * chunk stores into up to 8 lanes x 7 rows per step, each row in an array of
 * its own, and without the requests the stores wait for their lines
 * (tools/kernel_ab.py's rows sgd-rec, pca-rec and rm-rec time it).  The
 * unrecorded loops store one loss row per lane and request nothing, so the
 * runs that record nothing run the loops they ran before.  A prefetch
 * changes no value. */
#define AHEAD 16
#define PREFETCH_AT(k, m) (((k) & 7) == 0 && (k) + AHEAD < (m))
#define PREFETCH(row, k) __builtin_prefetch((row) + (k) + AHEAD, 1, 3)

/* Returns CALL(w, buf), a long, with w equal to d and buf the chunk body's
 * scratch, SCRATCH(w) doubles.  For d = 2 and d = 4, the widths of the
 * shipped configs and benchmark workloads, w is a constant and buf an array
 * on the stack, so that the compiler builds one copy of the inlined body for
 * each, with its coordinate loops unrolled; a constant copy makes those
 * widths' chunks up to 1.6 times faster, and each costs about 1 s of an -O2
 * build.  Every other width runs the same body with w = d at run time, and
 * buf comes from the heap: LANES iterates of d values and a few more vectors
 * would outgrow a thread's stack at large d (12.5 MB for PCA at p = 60 000).
 * The stack arrays are 64-byte aligned: at the ABI's 16 bytes their offset
 * moves with the rest of the frame, and the d = 2 ridge chunk of a build
 * without the alignment ran 1.7 to 1.8 times slower (tools/kernel_ab.py).
 * Returns -1 if buf cannot be allocated.  d >= 1 is checked in Python. */
#define BY_WIDTH(d, SCRATCH, CALL)                                  \
    switch (d) {                                                    \
    case 2: {                                                       \
        double buf[SCRATCH(2)] __attribute__((aligned(64)));        \
        return CALL(2, buf);                                        \
    }                                                               \
    case 4: {                                                       \
        double buf[SCRATCH(4)] __attribute__((aligned(64)));        \
        return CALL(4, buf);                                        \
    }                                                               \
    default: {                                                      \
        double *buf = malloc(sizeof(double) * SCRATCH(d));          \
        if (!buf)                                                   \
            return -1;                                              \
        const long ret = CALL(d, buf);                              \
        free(buf);                                                  \
        return ret;                                                 \
    }                                                               \
    }

/* The rows of state and gens lane l of the block at i0 steps: its own, or
 * for a ghost lane of a partial block the block's first. */
INLINE long lane_row(long i0, long lanes, long l)
{
    return l < lanes ? i0 + l : i0;
}

/* Projected SGD with sphere noise e of radius b_noise:
 * w = x - eta*(a*(x - x*) + e), projected onto the ball; returns the number
 * of projections.  With dev = x - x* before a step and dn after it: loss
 * |dn|^2, loss_pl 0.5*(sum (a*dn)*dn), y_sc -<e, dev>, y_pl -<a*dev, e>,
 * gnorm2 |a*dev + e|^2, noise_sc (2*eta)*y_sc + (eta*eta)*gnorm2 and
 * noise_pl eta*y_pl + ((half_mu*eta)*eta)*gnorm2. */
#define SGD_SCRATCH(d) ((3 * LANES + 5) * (d))

INLINE long sgd_rows(double *buf, double *state, uint64_t *gens, const double *etas,
                     const double *a, const double *xs, long m, long n, long d, double radius,
                     double rr, double b_noise, double half_mu, double *loss, long ld_loss,
                     double *loss_pl, long ld_pl, double *noise_sc, double *noise_pl,
                     double *y_sc, double *y_pl, double *gnorm2, long ld)
{
    double(*x)[d] = (double(*)[d])buf, (*w)[d] = x + LANES, (*e)[d] = w + LANES;
    double *dev = e[LANES], *dn = dev + d, *gradf = dn + d, *gv = gradf + d, *adn = gv + d;
    pcg64_t g[LANES];
    long hits = 0;
    /* radius 0 draws nothing: the noise stays zero, as in Reference.sphere */
    if (b_noise == 0.0)
        memset(e, 0, sizeof(double) * LANES * d);
    for (long i0 = 0; i0 < n; i0 += LANES) {
        const long lanes = n - i0 < LANES ? n - i0 : LANES;
        EACH_LANE(l) {
            const long i = lane_row(i0, lanes, l);
            memcpy(x[l], state + i * d, sizeof(double) * d);
            g[l] = pcg_load(gens + i * STATE_WORDS);
        }
        for (long k = 0; k < m; k++) {
            const double eta = etas[k];
            /* Reference.sphere's normals, then _onto_sphere's scaling, drawn
             * value-major across the lanes */
            if (b_noise != 0.0) {
                for (long j = 0; j < d; j++)
                    EACH_LANE(l) e[l][j] = normal(&g[l]);
                EACH_LANE(l) {
                    double f = b_noise / sqrt(sum_sq(e[l], d));
                    for (long j = 0; j < d; j++)
                        e[l][j] = e[l][j] * f;
                }
            }
            EACH_LANE(l) {
                for (long j = 0; j < d; j++) {
                    double gj = a[j] * (x[l][j] - xs[j]);
                    gj = gj + e[l][j];
                    gj = gj * eta;
                    w[l][j] = x[l][j] - gj;
                }
            }
            EACH_LANE(l) {
                const long moved = project(w[l], d, radius, rr);
                hits += l < lanes ? moved : 0;
            }
            /* the channels, when recorded, in a rolled loop: unrolled, they
             * would add half the library's build time for no speed */
            for (long l = 0; loss_pl && l < LANES; l++) {
                const long i = lane_row(i0, lanes, l);
                if (PREFETCH_AT(k, m)) {
                    PREFETCH(loss + i * ld_loss, k);
                    PREFETCH(loss_pl + i * ld_pl, k);
                    PREFETCH(noise_sc + i * ld, k);
                    PREFETCH(noise_pl + i * ld, k);
                    PREFETCH(y_sc + i * ld, k);
                    PREFETCH(y_pl + i * ld, k);
                    PREFETCH(gnorm2 + i * ld, k);
                }
                for (long j = 0; j < d; j++) {
                    dev[j] = x[l][j] - xs[j];
                    dn[j] = w[l][j] - xs[j];
                    gradf[j] = a[j] * dev[j];
                    gv[j] = gradf[j] + e[l][j];
                    adn[j] = a[j] * dn[j];
                }
                double gn2 = sum_sq(gv, d);
                double y1 = -dot(e[l], dev, d);
                double y2 = -dot(gradf, e[l], d);
                y_sc[i * ld + k] = y1;
                y_pl[i * ld + k] = y2;
                gnorm2[i * ld + k] = gn2;
                noise_sc[i * ld + k] = (2.0 * eta) * y1 + (eta * eta) * gn2;
                noise_pl[i * ld + k] = eta * y2 + ((half_mu * eta) * eta) * gn2;
                loss_pl[i * ld_pl + k] = 0.5 * dot(adn, dn, d);
            }
            EACH_LANE(l) {
                const long i = lane_row(i0, lanes, l);
                for (long j = 0; j < d; j++)
                    dn[j] = w[l][j] - xs[j];
                loss[i * ld_loss + k] = sum_sq(dn, d);
                memcpy(x[l], w[l], sizeof(double) * d);
            }
        }
        EACH_LANE(l) {
            if (l < lanes) {
                memcpy(state + (i0 + l) * d, x[l], sizeof(double) * d);
                pcg_store(gens + (i0 + l) * STATE_WORDS, &g[l]);
            }
        }
    }
    return hits;
}

long sgd_chunk(double *state, uint64_t *gens, const double *etas, const double *a,
               const double *xs, long m, long n, long d, double radius, double rr,
               double b_noise, double half_mu, double *loss, long ld_loss, double *loss_pl,
               long ld_pl, double *noise_sc, double *noise_pl, double *y_sc, double *y_pl,
               double *gnorm2, long ld)
{
#define SGD(D, buf)                                                                      \
    sgd_rows(buf, state, gens, etas, a, xs, m, n, D, radius, rr, b_noise, half_mu, loss, \
             ld_loss, loss_pl, ld_pl, noise_sc, noise_pl, y_sc, y_pl, gnorm2, ld)
    BY_WIDTH(d, SGD_SCRATCH, SGD)
#undef SGD
}

/* Streaming PCA on sign data x, scaled by scale, p signs per step from each
 * generator.  vn2 is the squared norm a step divides by, kept per replication in norms.
 * y = <x, v>; Krasulina: w = v + eta*(y*x - (y^2/vn2)*v), Oja:
 * w = v + (eta*y)*x.  grown = |w|^2 and, with normalize, w is divided by its
 * norm and the next vn2 is 1, else it is grown.  With u the first
 * coordinate after a step and the next vn2: loss max(0, 1 - (u*u)/vn2'), and
 * with v before it, z = y*x - ((y*y)/vn2)*v, sv = v*eigs, tv = (2*eta)*v1,
 * m = (tv*(sv1 - (v1*<sv, v>)/vn2))/vn2, q = m - (tv*z1)/vn2,
 * z_dot_v = <z, v>, znorm2 = |z|^2 and ratio = grown/vn2.
 * (0.0 >= r) ? 0.0 : r keeps a NaN r, as np.maximum(0.0, r) does and fmax
 * does not. */
#define PCA_SCRATCH(p) ((3 * LANES + 2) * (p))

INLINE long pca_rows(double *buf, double *state, double *norms, uint64_t *gens,
                     const double *scale, const double *etas, const double *eigs, long m,
                     long n, long p, int krasulina, int normalize, double *loss, long ld_loss,
                     double *q, double *z_dot_v, double *znorm2, double *ratio, long ld)
{
    double(*v)[p] = (double(*)[p])buf, (*w)[p] = v + LANES, (*x)[p] = w + LANES;
    double *z = x[LANES], *sv = z + p;
    double vn2[LANES], y[LANES], grown[LANES], next[LANES];
    pcg64_t g[LANES];
    for (long i0 = 0; i0 < n; i0 += LANES) {
        const long lanes = n - i0 < LANES ? n - i0 : LANES;
        EACH_LANE(l) {
            const long i = lane_row(i0, lanes, l);
            memcpy(v[l], state + i * p, sizeof(double) * p);
            vn2[l] = norms[i];
            g[l] = pcg_load(gens + i * STATE_WORDS);
        }
        for (long k = 0; k < m; k++) {
            const double eta = etas[k];
            EACH_LANE(l) {
                sign_row(x[l], &g[l], scale, p);
                y[l] = dot(x[l], v[l], p);
            }
            if (krasulina) {
                for (long l = 0; l < LANES; l++) {
                    double c = y[l] * y[l];
                    c = c / vn2[l];
                    for (long j = 0; j < p; j++) {
                        double zj = y[l] * x[l][j];
                        zj = zj - c * v[l][j];
                        zj = zj * eta;
                        w[l][j] = v[l][j] + zj;
                    }
                }
            } else {
                for (long l = 0; l < LANES; l++) {
                    double ye = y[l] * eta;
                    for (long j = 0; j < p; j++)
                        w[l][j] = v[l][j] + ye * x[l][j];
                }
            }
            for (long l = 0; l < LANES; l++)
                grown[l] = next[l] = sum_sq(w[l], p);
            if (normalize) {
                for (long l = 0; l < LANES; l++) {
                    double c = sqrt(grown[l]);
                    for (long j = 0; j < p; j++)
                        w[l][j] = w[l][j] / c;
                    next[l] = 1.0;
                }
            }
            for (long l = 0; l < LANES; l++) {
                const long i = lane_row(i0, lanes, l);
                double r = 1.0 - (w[l][0] * w[l][0]) / next[l];
                loss[i * ld_loss + k] = (0.0 >= r) ? 0.0 : r;
                if (q) {
                    if (PREFETCH_AT(k, m)) {
                        PREFETCH(loss + i * ld_loss, k);
                        PREFETCH(q + i * ld, k);
                        PREFETCH(z_dot_v + i * ld, k);
                        PREFETCH(znorm2 + i * ld, k);
                        PREFETCH(ratio + i * ld, k);
                    }
                    double c = (y[l] * y[l]) / vn2[l];
                    for (long j = 0; j < p; j++) {
                        z[j] = y[l] * x[l][j] - c * v[l][j];
                        sv[j] = v[l][j] * eigs[j];
                    }
                    double v1 = v[l][0];
                    double tv = (2.0 * eta) * v1;
                    double m_t = (tv * (sv[0] - (v1 * dot(sv, v[l], p)) / vn2[l])) / vn2[l];
                    q[i * ld + k] = m_t - (tv * z[0]) / vn2[l];
                    z_dot_v[i * ld + k] = dot(z, v[l], p);
                    znorm2[i * ld + k] = sum_sq(z, p);
                    ratio[i * ld + k] = grown[l] / vn2[l];
                }
                memcpy(v[l], w[l], sizeof(double) * p);
                vn2[l] = next[l];
            }
        }
        EACH_LANE(l) {
            if (l < lanes) {
                memcpy(state + (i0 + l) * p, v[l], sizeof(double) * p);
                norms[i0 + l] = vn2[l];
                pcg_store(gens + (i0 + l) * STATE_WORDS, &g[l]);
            }
        }
    }
    return 0;
}

long pca_chunk(double *state, double *norms, uint64_t *gens, const double *scale,
               const double *etas, const double *eigs, long m, long n, long p, int krasulina,
               int normalize, double *loss, long ld_loss, double *q, double *z_dot_v,
               double *znorm2, double *ratio, long ld)
{
#define PCA(D, buf)                                                                         \
    pca_rows(buf, state, norms, gens, scale, etas, eigs, m, n, D, krasulina, normalize, \
             loss, ld_loss, q, z_dot_v, znorm2, ratio, ld)
    BY_WIDTH(p, PCA_SCRATCH, PCA)
#undef PCA
}

/* Root finding with noise xi uniform on [low, low + range): with
 * u = x - theta, x <- x - eta*(M + xi), the one step of rm_chunk and
 * lil_chunk (rm_step), where M = b*u, or for the cubic M
 * a*((u*u)*u) + b*u.  The envelope rm_chunk records, P(|u|)^2 + r1^2 of
 * l = u*u (rm_envelope), is b2*l + r1sq, or for the cubic M
 * ((a2*((l*l)*l) + ab2*(l*l)) + b2*l) + r1sq: RmProblem's m_func and
 * poly_sq, with products for their powers, and the constants they form in
 * Python come in formed (_kernel._rm_constants).  Each function branches
 * once, on cubic, into one inlined body per M, as BY_WIDTH does on the
 * width, so the linear M's loops stay as they were without the cubic arm. */
typedef struct {
    double theta, a, b, a2, ab2, b2, r1sq;
} rm_consts;

INLINE double rm_step(double x, double xi, double eta, const rm_consts *c, bool cubic)
{
    const double u = x - c->theta;
    double y = cubic ? c->a * ((u * u) * u) + c->b * u : c->b * u;
    y = y + xi;
    y = y * eta;
    return x - y;
}

INLINE double rm_envelope(double dev, const rm_consts *c, bool cubic)
{
    const double l = dev * dev;
    const double p = cubic ? (c->a2 * ((l * l) * l) + c->ab2 * (l * l)) + c->b2 * l : c->b2 * l;
    return p + c->r1sq;
}

/* With dev = x - theta before a step and dn after it: loss dn*dn, q
 * ((-2*eta)*dev)*xi and noise q + ((2*eta)*eta)*rm_envelope(dev). */
INLINE void rm_rows(double *state, uint64_t *gens, const double *etas, long m, long n,
                    const rm_consts *c, bool cubic, double low, double range, double *loss,
                    long ld_loss, double *q, double *noise, long ld)
{
    double x[LANES], xi[LANES];
    pcg64_t g[LANES];
    for (long i0 = 0; i0 < n; i0 += LANES) {
        const long lanes = n - i0 < LANES ? n - i0 : LANES;
        EACH_LANE(l) {
            const long i = lane_row(i0, lanes, l);
            x[l] = state[i];
            g[l] = pcg_load(gens + i * STATE_WORDS);
        }
        for (long k = 0; k < m; k++) {
            const double eta = etas[k];
            EACH_LANE(l) xi[l] = uniform(&g[l], low, range);
            EACH_LANE(l) {
                const long i = lane_row(i0, lanes, l);
                const double w = rm_step(x[l], xi[l], eta, c, cubic);
                const double dn = w - c->theta;
                loss[i * ld_loss + k] = dn * dn;
                if (q) {
                    if (PREFETCH_AT(k, m)) {
                        PREFETCH(loss + i * ld_loss, k);
                        PREFETCH(q + i * ld, k);
                        PREFETCH(noise + i * ld, k);
                    }
                    double dev = x[l] - c->theta;
                    double qk = ((-2.0 * eta) * dev) * xi[l];
                    q[i * ld + k] = qk;
                    noise[i * ld + k] = qk + ((2.0 * eta) * eta) * rm_envelope(dev, c, cubic);
                }
                x[l] = w;
            }
        }
        EACH_LANE(l) {
            if (l < lanes) {
                state[i0 + l] = x[l];
                pcg_store(gens + (i0 + l) * STATE_WORDS, &g[l]);
            }
        }
    }
}

void rm_chunk(double *state, uint64_t *gens, const double *etas, long m, long n,
              const rm_consts *consts, int cubic, double low, double range, double *loss,
              long ld_loss, double *q, double *noise, long ld)
{
    /* a copy in locals: the compiler need not reload it after each store */
    const rm_consts c = *consts;
    if (cubic)
        rm_rows(state, gens, etas, m, n, &c, true, low, range, loss, ld_loss, q, noise, ld);
    else
        rm_rows(state, gens, etas, m, n, &c, false, low, range, loss, ld_loss, q, noise, ld);
}

/* Ridge SGD on the draws of LinearModelStream.draw: covariates x of d signs
 * times scale = x_radius/sqrt(d) and responses y = <x, theta*> + xi, with
 * xi uniform on [low, low + range); resid = <x, theta> - y.  With the
 * penalty in the gradient w = theta - eta*(resid*x + lambda*theta); without
 * it w = (theta - (eta*resid)*x) + lambda*theta.  Then w is projected, and
 * its loss is |w - theta*|^2.
 *
 * Each generator draws its chunk as LinearModelStream.draw(gen, m) does: its
 * m*d signs, then its m uniforms.  A sign is one next32, half an output,
 * and a uniform one whole output that leaves the spare half word alone, so
 * each lane draws from two cursors as it steps: the signs from its
 * generator g, and the uniforms from a copy u of g whose state is advanced
 * past the outputs the signs take, ceil((m*d - has_uint32)/2) of them
 * (pcg_advance).  The lane ends in u's state with g's spare half word: the
 * state the signs, then the uniforms, drawn in turn leave. */
#define RIDGE_SCRATCH(d) ((2 * LANES + 1) * (d))

INLINE long ridge_rows(double *buf, double *state, uint64_t *gens, const double *etas,
                       const double *theta_star, long m, long n, long d, double scale,
                       double low, double range, double lambda_pen, int penalty_in_gradient,
                       double radius, double rr, double *loss, long ld_loss)
{
    double(*th)[d] = (double(*)[d])buf, (*x)[d] = th + LANES, *dn = x[LANES];
    double y[LANES];
    pcg64_t g[LANES], u[LANES];
    for (long i0 = 0; i0 < n; i0 += LANES) {
        const long lanes = n - i0 < LANES ? n - i0 : LANES;
        EACH_LANE(l) {
            const long i = lane_row(i0, lanes, l);
            memcpy(th[l], state + i * d, sizeof(double) * d);
            g[l] = u[l] = pcg_load(gens + i * STATE_WORDS);
            /* the division rounds up, and gives 0 for m*d - has_uint32 = -1 */
            const long skip = (m * d - (long)g[l].has_uint32 + 1) / 2;
            u[l].state = pcg_advance(g[l].state, g[l].inc, (unsigned long)skip);
        }
        for (long k = 0; k < m; k++) {
            const double eta = etas[k];
            for (long j = 0; j < d; j++)
                EACH_LANE(l) x[l][j] = sign(&g[l]) * scale;
            EACH_LANE(l) y[l] = dot(x[l], theta_star, d) + uniform(&u[l], low, range);
            for (long l = 0; l < lanes; l++) {
                double *t = th[l];
                const double resid = dot(x[l], t, d) - y[l];
                const double re = resid * eta;
                for (long j = 0; j < d; j++) {
                    const double tj = t[j];
                    if (penalty_in_gradient) {
                        double gj = resid * x[l][j];
                        gj = gj + tj * lambda_pen;
                        t[j] = tj - gj * eta;
                    } else {
                        t[j] = (tj - re * x[l][j]) + tj * lambda_pen;
                    }
                }
                project(t, d, radius, rr);
                for (long j = 0; j < d; j++)
                    dn[j] = t[j] - theta_star[j];
                loss[(i0 + l) * ld_loss + k] = sum_sq(dn, d);
            }
        }
        EACH_LANE(l) {
            if (l < lanes) {
                memcpy(state + (i0 + l) * d, th[l], sizeof(double) * d);
                u[l].has_uint32 = g[l].has_uint32;
                u[l].uinteger = g[l].uinteger;
                pcg_store(gens + (i0 + l) * STATE_WORDS, &u[l]);
            }
        }
    }
    return 0;
}

long ridge_chunk(double *state, uint64_t *gens, const double *etas, const double *theta_star,
                 long m, long n, long d, double scale, double low, double range,
                 double lambda_pen, int penalty_in_gradient, double radius, double rr,
                 double *loss, long ld_loss)
{
#define RIDGE(D, buf)                                                                     \
    ridge_rows(buf, state, gens, etas, theta_star, m, n, D, scale, low, range, lambda_pen, \
               penalty_in_gradient, radius, rr, loss, ld_loss)
    BY_WIDTH(d, RIDGE_SCRATCH, RIDGE)
#undef RIDGE
}

/* The LIL statistic's dyadic block maxima, folded as the root-finding
 * replications step.  lil_chunk runs rm_chunk's step (rm_step) at the times
 * t = t0 .. t0+m-1 with eta_t = l1/t, and folds the statistic
 * ((t*dn)*dn)/log(log(t)) of each deviation dn = x_t - theta into
 * block_max, (n_blocks, n), which holds each replication's maximum over
 * block b, t = 2^(b+1)+1 .. 2^(b+2), so far.  Each lane keeps the running
 * maximum of the chunk's part of a block in a local, which goes into
 * block_max when the part ends, as _reference.Reference.lil_chunk folds
 * the maximum of each part.  Times outside the blocks, t < 3 or
 * t > 2^(n_blocks+1), fold nothing.  log log t comes from libm's log, the
 * function math.log calls, into ll, m values of scratch.  No deviation is
 * stored, so the call writes nothing but the iterates, the generators and
 * block_max. */

/* log(log(t)) for the m times t0, t0+1, ... */
void lil_loglog(double *out, long t0, long m)
{
    for (long k = 0; k < m; k++)
        out[k] = log(log((double)(t0 + k)));
}

/* np.maximum(a, b): a NaN wins, the first one first, and a tie gives b.
 * Ties only tell -0.0 from +0.0, and no statistic is -0.0: (t*dn)*dn
 * multiplies two values of one sign. */
INLINE double nan_max(double a, double b)
{
    return (a > b || isnan(a)) ? a : b;
}

INLINE void lil_rows(double *state, uint64_t *gens, long t0, long m, long n, double l1,
                     const rm_consts *c, bool cubic, double low, double range,
                     double *block_max, long n_blocks, double *ll)
{
    const long t_last = 2L << n_blocks;
    /* the statistics before t = 3, where log log t is not positive, are
     * formed over 1.0 and fold nowhere */
    const long early = t0 >= 3 ? 0 : (3 - t0 < m ? 3 - t0 : m);
    for (long k = 0; k < early; k++)
        ll[k] = 1.0;
    lil_loglog(ll + early, t0 + early, m - early);
    double x[LANES], xi[LANES], top[LANES];
    pcg64_t g[LANES];
    for (long i0 = 0; i0 < n; i0 += LANES) {
        const long lanes = n - i0 < LANES ? n - i0 : LANES;
        EACH_LANE(l) {
            const long i = lane_row(i0, lanes, l);
            x[l] = state[i];
            g[l] = pcg_load(gens + i * STATE_WORDS);
        }
        for (long k = 0; k < m;) {
            /* steps k .. end-1 fall in block b, or in none when b < 0 */
            const long t = t0 + k;
            long b = -1, end = m;
            if (t < 3) {
                end = early;
            } else if (t <= t_last) {
                long last = 4;
                for (b = 0; last < t; b++)
                    last <<= 1;
                end = last - t0 + 1 < m ? last - t0 + 1 : m;
            }
            EACH_LANE(l) top[l] = -INFINITY;
            for (; k < end; k++) {
                const double tk = (double)(t0 + k);
                const double eta = l1 / tk;
                EACH_LANE(l) xi[l] = uniform(&g[l], low, range);
                EACH_LANE(l) {
                    x[l] = rm_step(x[l], xi[l], eta, c, cubic);
                    const double dn = x[l] - c->theta;
                    top[l] = nan_max(top[l], ((tk * dn) * dn) / ll[k]);
                }
            }
            EACH_LANE(l) {
                if (b >= 0 && l < lanes) {
                    double *out = block_max + b * n + i0 + l;
                    *out = nan_max(*out, top[l]);
                }
            }
        }
        EACH_LANE(l) {
            if (l < lanes) {
                state[i0 + l] = x[l];
                pcg_store(gens + (i0 + l) * STATE_WORDS, &g[l]);
            }
        }
    }
}

void lil_chunk(double *state, uint64_t *gens, long t0, long m, long n, double l1,
               const rm_consts *consts, int cubic, double low, double range,
               double *block_max, long n_blocks, double *ll)
{
    const rm_consts c = *consts;
    if (cubic)
        lil_rows(state, gens, t0, m, n, l1, &c, true, low, range, block_max, n_blocks, ll);
    else
        lil_rows(state, gens, t0, m, n, l1, &c, false, low, range, block_max, n_blocks, ll);
}

/* Recursion checks.  Each walks one path of m steps, losses L_0..L_m
 * (m + 1 values), steps and noise (m values each), evaluates at each step t
 * the numpy expressions of its checker's sides (_reference.recursion_sides
 * or pca_sides), in their order and with their parentheses, and returns the
 * first t at which not (L_{t+1} <= rec_rhs + slack) or not (|u| <= mag_rhs
 * + slack), so that a NaN on either side fails, or -1 when no step fails.
 * The slack is tol * np.maximum(1.0, L_t): NaN for a NaN loss, and NaN for
 * tol = 0 and an infinite loss.  Powers other than squares stay in numpy:
 * recursion_failure adds the k rows of magnitude terms, (k, m), that the
 * caller formed with numpy's pow, in order; the constants of a checker's
 * Python expressions, such as 8.0 * b**2, come in as doubles. */

/* np.maximum(1.0, x): 1.0 unless x is greater or NaN */
INLINE double max_one(double x)
{
    return 1.0 >= x ? 1.0 : x;
}

long recursion_failure(const double *losses, const double *steps, const double *noise, long m,
                       double tol, double c1, double c2, double c3, const double *terms, long k)
{
    for (long t = 0; t < m; t++) {
        const double lp = losses[t], eta = steps[t], u = noise[t];
        const double slack = tol * max_one(lp);
        if (!(losses[t + 1] <= (1.0 - c1 * eta) * lp + u + slack))
            return t;
        double mag = c3 * eta * sqrt(lp) + c2 * (eta * eta);
        for (long i = 0; i < k; i++)
            mag = mag + terms[i * m + t];
        if (!(fabs(u) <= mag + slack))
            return t;
    }
    return -1;
}

/* The Krasulina check takes coef = 4.0 * b**4; Oja's, coef = 5.0 * b**4 and
 * b6 = b**6, adds (2.0 * eta) * b6 to it per step.  two_rho = 2.0 * rho and
 * mag_coef = 8.0 * b**2. */
long pca_failure(const double *losses, const double *steps, const double *q, long m, double tol,
                 double two_rho, double coef, double b6, int oja, double mag_coef)
{
    for (long t = 0; t < m; t++) {
        const double lp = losses[t], eta = steps[t], qt = q[t];
        const double slack = tol * max_one(lp);
        const double c = oja ? coef + 2.0 * eta * b6 : coef;
        const double rec =
            (1.0 - two_rho * eta) * lp + two_rho * eta * (lp * lp) + qt + c * (eta * eta);
        if (!(losses[t + 1] <= rec + slack))
            return t;
        if (!(fabs(qt) <= mag_coef * eta * sqrt(lp) + slack))
            return t;
    }
    return -1;
}
