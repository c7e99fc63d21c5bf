//===- suite.cpp - SunSpider-subset workload suite -------------------------------===//

#include "suite.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

namespace tracejit_bench {

using namespace tracejit;

// --- Programs -------------------------------------------------------------------

static const char *Bitops_BitwiseAnd = R"js(
var bitwiseAndValue = 4294967296;
for (var i = 0; i < 600000; i++)
  bitwiseAndValue = bitwiseAndValue & i;
print(bitwiseAndValue);
)js";

static const char *Bitops_3BitBitsInByte = R"js(
function fast3bitlookup(b) {
  var c, bi3b = 0xE994;
  c = 3 & (bi3b >> ((b << 1) & 14));
  c += 3 & (bi3b >> ((b >> 2) & 14));
  c += 3 & (bi3b >> ((b >> 5) & 6));
  return c;
}
function TimeFunc(){
  var x, y, t;
  var sum = 0;
  for (var x = 0; x < 50; x++)
    for (var y = 0; y < 256; y++)
      sum += fast3bitlookup(y);
  return sum;
}
var r = 0;
for (var rep = 0; rep < 12; rep++) r = TimeFunc();
print(r);
)js";

static const char *Bitops_BitsInByte = R"js(
function bitsinbyte(b) {
  var m = 1, c = 0;
  while (m < 0x100) {
    if (b & m) c++;
    m <<= 1;
  }
  return c;
}
function TimeFunc(){
  var x, y, t;
  var sum = 0;
  for (var x = 0; x < 35; x++)
    for (var y = 0; y < 256; y++)
      sum += bitsinbyte(y);
  return sum;
}
var r = 0;
for (var rep = 0; rep < 12; rep++) r = TimeFunc();
print(r);
)js";

static const char *Bitops_NsieveBits = R"js(
function primes(isPrime, n) {
  var i, count = 0, m = 10000 << n, size = (m + 31) >> 5;
  for (i = 0; i < size; i++) isPrime[i] = 0xffffffff | 0;
  for (i = 2; i < m; i++)
    if (isPrime[i >> 5] & (1 << (i & 31))) {
      for (var j = i + i; j < m; j += i)
        isPrime[j >> 5] = isPrime[j >> 5] & ~(1 << (j & 31));
      count++;
    }
  return count;
}
function sieve() {
  var sum = 0;
  for (var i = 0; i <= 2; i++) {
    var isPrime = Array(((10000 << i) + 31) >> 5);
    sum += primes(isPrime, i);
  }
  return sum;
}
print(sieve());
)js";

static const char *Access_Nsieve = R"js(
function pad(number, width) { return number; }
function nsieve(m, isPrime) {
  var i, k, count;
  for (i = 2; i <= m; i++) isPrime[i] = true;
  count = 0;
  for (i = 2; i <= m; i++) {
    if (isPrime[i]) {
      for (k = i + i; k <= m; k += i) isPrime[k] = false;
      count++;
    }
  }
  return count;
}
function sieve() {
  var sum = 0;
  for (var i = 1; i <= 3; i++) {
    var m = (1 << i) * 10000;
    var flags = Array(m + 1);
    sum += nsieve(m, flags);
  }
  return sum;
}
print(sieve());
)js";

static const char *Access_Fannkuch = R"js(
function fannkuch(n) {
  var check = 0;
  var perm = Array(n);
  var perm1 = Array(n);
  var count = Array(n);
  var maxPerm = Array(n);
  var maxFlipsCount = 0;
  var m = n - 1;

  for (var i = 0; i < n; i++) perm1[i] = i;
  var r = n;

  while (true) {
    while (r != 1) { count[r - 1] = r; r--; }
    if (!(perm1[0] == 0 || perm1[m] == m)) {
      for (var i = 0; i < n; i++) perm[i] = perm1[i];

      var flipsCount = 0;
      var k;
      while (!((k = perm[0]) == 0)) {
        var k2 = (k + 1) >> 1;
        for (var i = 0; i < k2; i++) {
          var temp = perm[i]; perm[i] = perm[k - i]; perm[k - i] = temp;
        }
        flipsCount++;
      }
      if (flipsCount > maxFlipsCount) {
        maxFlipsCount = flipsCount;
        for (var i = 0; i < n; i++) maxPerm[i] = perm1[i];
      }
    }
    while (true) {
      if (r == n) return maxFlipsCount;
      var perm0 = perm1[0];
      var i = 0;
      while (i < r) {
        var j = i + 1;
        perm1[i] = perm1[j];
        i = j;
      }
      perm1[r] = perm0;
      count[r] = count[r] - 1;
      if (count[r] > 0) break;
      r++;
    }
  }
}
print(fannkuch(8));
)js";

static const char *Access_NBody = R"js(
function Body(x, y, z, vx, vy, vz, mass) {
  return {x: x, y: y, z: z, vx: vx, vy: vy, vz: vz, mass: mass};
}
var PI = 3.141592653589793;
var SOLAR_MASS = 4 * PI * PI;
var DAYS_PER_YEAR = 365.24;

function Jupiter() {
  return Body(4.84143144246472090, -1.16032004402742839, -0.103622044471123109,
    0.00166007664274403694 * DAYS_PER_YEAR, 0.00769901118419740425 * DAYS_PER_YEAR,
    -0.0000690460016972063023 * DAYS_PER_YEAR, 0.000954791938424326609 * SOLAR_MASS);
}
function Saturn() {
  return Body(8.34336671824457987, 4.12479856412430479, -0.403523417114321381,
    -0.00276742510726862411 * DAYS_PER_YEAR, 0.00499852801234917238 * DAYS_PER_YEAR,
    0.0000230417297573763929 * DAYS_PER_YEAR, 0.000285885980666130812 * SOLAR_MASS);
}
function Uranus() {
  return Body(12.8943695621391310, -15.1111514016986312, -0.223307578892655734,
    0.00296460137564761618 * DAYS_PER_YEAR, 0.00237847173959480950 * DAYS_PER_YEAR,
    -0.0000296589568540237556 * DAYS_PER_YEAR, 0.0000436624404335156298 * SOLAR_MASS);
}
function Neptune() {
  return Body(15.3796971148509165, -25.9193146099879641, 0.179258772950371181,
    0.00268067772490389322 * DAYS_PER_YEAR, 0.00162824170038242295 * DAYS_PER_YEAR,
    -0.0000951592254519715870 * DAYS_PER_YEAR, 0.0000515138902046611451 * SOLAR_MASS);
}
function Sun() { return Body(0, 0, 0, 0, 0, 0, SOLAR_MASS); }

var bodies = [Sun(), Jupiter(), Saturn(), Uranus(), Neptune()];
var size = 5;

function offsetMomentum() {
  var px = 0, py = 0, pz = 0;
  for (var i = 0; i < size; i++) {
    var b = bodies[i];
    px += b.vx * b.mass; py += b.vy * b.mass; pz += b.vz * b.mass;
  }
  var s = bodies[0];
  s.vx = 0 - px / SOLAR_MASS;
  s.vy = 0 - py / SOLAR_MASS;
  s.vz = 0 - pz / SOLAR_MASS;
}
function advance(dt) {
  for (var i = 0; i < size; i++) {
    var bi = bodies[i];
    for (var j = i + 1; j < size; j++) {
      var bj = bodies[j];
      var dx = bi.x - bj.x, dy = bi.y - bj.y, dz = bi.z - bj.z;
      var d2 = dx*dx + dy*dy + dz*dz;
      var mag = dt / (d2 * Math.sqrt(d2));
      bi.vx -= dx * bj.mass * mag; bi.vy -= dy * bj.mass * mag; bi.vz -= dz * bj.mass * mag;
      bj.vx += dx * bi.mass * mag; bj.vy += dy * bi.mass * mag; bj.vz += dz * bi.mass * mag;
    }
  }
  for (var i = 0; i < size; i++) {
    var b = bodies[i];
    b.x += dt * b.vx; b.y += dt * b.vy; b.z += dt * b.vz;
  }
}
function energy() {
  var e = 0;
  for (var i = 0; i < size; i++) {
    var bi = bodies[i];
    e += 0.5 * bi.mass * (bi.vx*bi.vx + bi.vy*bi.vy + bi.vz*bi.vz);
    for (var j = i + 1; j < size; j++) {
      var bj = bodies[j];
      var dx = bi.x - bj.x, dy = bi.y - bj.y, dz = bi.z - bj.z;
      e -= (bi.mass * bj.mass) / Math.sqrt(dx*dx + dy*dy + dz*dz);
    }
  }
  return e;
}
offsetMomentum();
var ret = 0;
for (var n = 3; n <= 24; n *= 2) {
  for (var k = 0; k < n * 400; k++) advance(0.01);
  ret += energy();
}
print(Math.floor(ret * 1e9));
)js";

static const char *Access_BinaryTrees = R"js(
function TreeNode(left, right, item) {
  return {left: left, right: right, item: item};
}
function itemCheck(t) {
  if (t.left == null) return t.item;
  return t.item + itemCheck(t.left) - itemCheck(t.right);
}
function bottomUpTree(item, depth) {
  if (depth > 0)
    return TreeNode(bottomUpTree(2 * item - 1, depth - 1),
                    bottomUpTree(2 * item, depth - 1), item);
  return TreeNode(null, null, item);
}
var ret = 0;
for (var n = 4; n <= 7; n += 1) {
  var minDepth = 4;
  var maxDepth = Math.max(minDepth + 2, n);
  var stretchDepth = maxDepth + 1;
  var check = itemCheck(bottomUpTree(0, stretchDepth));
  var longLivedTree = bottomUpTree(0, maxDepth);
  for (var depth = minDepth; depth <= maxDepth; depth += 2) {
    var iterations = 1 << (maxDepth - depth + minDepth);
    for (var i = 1; i <= iterations; i++) {
      check += itemCheck(bottomUpTree(i, depth));
      check += itemCheck(bottomUpTree(0 - i, depth));
    }
  }
  ret += itemCheck(longLivedTree);
}
print(ret);
)js";

static const char *ControlFlow_Recursive = R"js(
function ack(m, n) {
  if (m == 0) return n + 1;
  if (n == 0) return ack(m - 1, 1);
  return ack(m - 1, ack(m, n - 1));
}
function fib(n) {
  if (n < 2) return 1;
  return fib(n - 2) + fib(n - 1);
}
function tak(x, y, z) {
  if (y >= x) return z;
  return tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y));
}
var result = 0;
for (var i = 3; i <= 5; i++)
  result += ack(3, i) + fib(17 + i % 3) + tak(3 * i + 3, 2 * i + 2, i + 1);
print(result);
)js";

static const char *Math_Cordic = R"js(
var AG_CONST = 0.6072529350;
function FIXED(X) { return X * 65536.0; }
function FLOAT(X) { return X / 65536.0; }
function DEG2RAD(X) { return 0.017453 * X; }
var Angles = [
  FIXED(45.0), FIXED(26.565), FIXED(14.0362), FIXED(7.12502),
  FIXED(3.57633), FIXED(1.78991), FIXED(0.895174), FIXED(0.447614),
  FIXED(0.223811), FIXED(0.111906), FIXED(0.055953), FIXED(0.027977)
];
var Target = 28.027;
function cordicsincos(Target) {
  var X, Y, TargetAngle, CurrAngle;
  X = FIXED(AG_CONST);
  Y = 0;
  TargetAngle = FIXED(Target);
  CurrAngle = 0;
  for (var Step = 0; Step < 12; Step++) {
    var NewX;
    if (TargetAngle > CurrAngle) {
      NewX = X - (Y >> Step);
      Y = (X >> Step) + Y;
      X = NewX;
      CurrAngle += Angles[Step];
    } else {
      NewX = X + (Y >> Step);
      Y = 0 - (X >> Step) + Y;
      X = NewX;
      CurrAngle -= Angles[Step];
    }
  }
  return FLOAT(X) * FLOAT(Y);
}
function cordic(runs) {
  var total = 0;
  for (var i = 0; i < runs; i++) total += cordicsincos(Target);
  return total;
}
print(Math.floor(cordic(100000)));
)js";

static const char *Math_PartialSums = R"js(
function partial(n) {
  var a1 = 0, a2 = 0, a3 = 0, a4 = 0, a5 = 0, a6 = 0, a7 = 0, a8 = 0, a9 = 0;
  var twothirds = 2.0 / 3.0;
  var alt = -1.0;
  var k2 = 0, k3 = 0, sk = 0, ck = 0;
  for (var k = 1; k <= n; k++) {
    k2 = k * k;
    k3 = k2 * k;
    sk = Math.sin(k);
    ck = Math.cos(k);
    alt = 0 - alt;
    a1 += Math.pow(twothirds, k - 1);
    a2 += Math.pow(k, -0.5);
    a3 += 1.0 / (k * (k + 1.0));
    a4 += 1.0 / (k3 * sk * sk);
    a5 += 1.0 / (k3 * ck * ck);
    a6 += 1.0 / k;
    a7 += 1.0 / k2;
    a8 += alt / k;
    a9 += alt / (2 * k - 1);
  }
  return a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9;
}
var total = 0;
for (var i = 1024; i <= 16384; i *= 2) total += partial(i);
print(Math.floor(total * 1e6));
)js";

static const char *Math_SpectralNorm = R"js(
function A(i, j) {
  return 1 / ((i + j) * (i + j + 1) / 2 + i + 1);
}
function Au(u, v, n) {
  for (var i = 0; i < n; ++i) {
    var t = 0;
    for (var j = 0; j < n; ++j) t += A(i, j) * u[j];
    v[i] = t;
  }
}
function Atu(u, v, n) {
  for (var i = 0; i < n; ++i) {
    var t = 0;
    for (var j = 0; j < n; ++j) t += A(j, i) * u[j];
    v[i] = t;
  }
}
function AtAu(u, v, w, n) {
  Au(u, w, n);
  Atu(w, v, n);
}
function spectralnorm(n) {
  var i, u = Array(n), v = Array(n), w = Array(n), vv = 0, vBv = 0;
  for (i = 0; i < n; ++i) { u[i] = 1; v[i] = 0; w[i] = 0; }
  for (i = 0; i < 10; ++i) {
    AtAu(u, v, w, n);
    AtAu(v, u, w, n);
  }
  for (i = 0; i < n; ++i) {
    vBv += u[i] * v[i];
    vv += v[i] * v[i];
  }
  return Math.sqrt(vBv / vv);
}
var total = 0;
for (var i = 6; i <= 48; i *= 2) total += spectralnorm(i);
print(Math.floor(total * 1e9));
)js";

static const char *ThreeD_Morph = R"js(
var loops = 12;
var nx = 60;
var nz = 60;
function morph(a, f) {
  var PI2nx = Math.PI * 8 / nx;
  var sin = Math.sin;
  var f30 = -(50 * sin(f * Math.PI * 2));
  for (var i = 0; i < nz; ++i) {
    for (var j = 0; j < nx; ++j) {
      a[3 * (i * nx + j) + 1] = sin((j - 1) * PI2nx) * -f30;
    }
  }
}
var a = Array(nx * nz * 3);
for (var i = 0; i < nx * nz * 3; ++i) a[i] = 0;
for (var i = 0; i < loops; ++i) morph(a, i / loops);
var testOutput = 0;
for (var i = 0; i < nx; i++) testOutput += a[3 * (i * nx + i) + 1];
print(Math.floor(testOutput * 1e10));
)js";

static const char *Crypto_Sha1Kernel = R"js(
function rol(num, cnt) {
  return (num << cnt) | (num >>> (32 - cnt));
}
function sha1core(blocks, nblk) {
  var w = Array(80);
  var h0 = 1732584193, h1 = -271733879, h2 = -1732584194;
  var h3 = 271733878, h4 = -1009589776;
  for (var b = 0; b < nblk; b++) {
    var base = b * 16;
    for (var i = 0; i < 16; i++) w[i] = blocks[base + i];
    for (var i = 16; i < 80; i++)
      w[i] = rol(w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16], 1);
    var a = h0, bb = h1, c = h2, d = h3, e = h4;
    for (var i = 0; i < 80; i++) {
      var f, k;
      if (i < 20) { f = (bb & c) | (~bb & d); k = 1518500249; }
      else if (i < 40) { f = bb ^ c ^ d; k = 1859775393; }
      else if (i < 60) { f = (bb & c) | (bb & d) | (c & d); k = -1894007588; }
      else { f = bb ^ c ^ d; k = -899497514; }
      var t = (rol(a, 5) + f + e + w[i] + k) | 0;
      e = d; d = c; c = rol(bb, 30); bb = a; a = t;
    }
    h0 = (h0 + a) | 0; h1 = (h1 + bb) | 0; h2 = (h2 + c) | 0;
    h3 = (h3 + d) | 0; h4 = (h4 + e) | 0;
  }
  return h0 ^ h1 ^ h2 ^ h3 ^ h4;
}
var nblk = 64;
var blocks = Array(nblk * 16);
var seed = 1;
for (var i = 0; i < nblk * 16; i++) {
  seed = (seed * 1103515245 + 12345) | 0;
  blocks[i] = seed;
}
var digest = 0;
for (var round = 0; round < 60; round++)
  digest ^= sha1core(blocks, nblk);
print(digest);
)js";

static const char *String_Base64 = R"js(
var toBase64Table = 'ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/';
var base64Pad = '=';
function toBase64(data) {
  var result = '';
  var length = data.length;
  var i;
  for (i = 0; i < (length - 2); i += 3) {
    result += toBase64Table.charAt(data.charCodeAt(i) >> 2);
    result += toBase64Table.charAt(((data.charCodeAt(i) & 0x03) << 4) | (data.charCodeAt(i+1) >> 4));
    result += toBase64Table.charAt(((data.charCodeAt(i+1) & 0x0f) << 2) | (data.charCodeAt(i+2) >> 6));
    result += toBase64Table.charAt(data.charCodeAt(i+2) & 0x3f);
  }
  return result;
}
var str = '';
for (var i = 0; i < 819; i++)
  str += String.fromCharCode((25 * (i * i) + 3 * i) % 256);
var check = 0;
for (var round = 0; round < 24; round++) {
  var encoded = toBase64(str);
  check += encoded.length + encoded.charCodeAt(round);
}
print(check);
)js";

static const char *String_ValidateKernel = R"js(
var letters = 'abcdefghijklmnopqrstuvwxyz';
var numbers = '0123456789';
function makeName(n) {
  var name = '';
  for (var i = 0; i < 6; i++)
    name += letters.charAt((n * 7 + i * 13) % 26);
  return name;
}
function makeNumber(n) {
  var num = '';
  for (var i = 0; i < 8; i++)
    num += numbers.charAt((n * 3 + i * 11) % 10);
  return num;
}
var checksum = 0;
for (var i = 0; i < 2500; i++) {
  var name = makeName(i);
  var num = makeNumber(i);
  checksum += name.length + num.length + name.charCodeAt(0) + num.charCodeAt(0);
}
print(checksum);
)js";

// --- Suite table -------------------------------------------------------------------

const std::vector<BenchProgram> &suite() {
  static const std::vector<BenchProgram> S = {
      {"bitops-bitwise-and", Bitops_BitwiseAnd, "", true},
      {"bitops-3bit-bits-in-byte", Bitops_3BitBitsInByte, "", true},
      {"bitops-bits-in-byte", Bitops_BitsInByte, "", true},
      {"bitops-nsieve-bits", Bitops_NsieveBits, "", true},
      {"access-nsieve", Access_Nsieve, "", true},
      {"access-fannkuch", Access_Fannkuch, "", true},
      {"access-nbody", Access_NBody, "", true},
      {"access-binary-trees", Access_BinaryTrees, "", false},
      {"controlflow-recursive", ControlFlow_Recursive, "", false},
      {"math-cordic", Math_Cordic, "", true},
      {"math-partial-sums", Math_PartialSums, "", true},
      {"math-spectral-norm", Math_SpectralNorm, "", true},
      {"3d-morph", ThreeD_Morph, "", true},
      {"crypto-sha1", Crypto_Sha1Kernel, "", true},
      {"string-base64", String_Base64, "", true},
      {"string-validate-input", String_ValidateKernel, "", true},
  };
  return S;
}

// --- Harness --------------------------------------------------------------------------

tracejit::EngineOptions interpreterOptions() {
  EngineOptions O;
  O.EnableJit = false;
  return O;
}

tracejit::EngineOptions tracingOptions() {
  EngineOptions O;
  O.EnableJit = true;
  O.JitBackend = Backend::Native;
  return O;
}

bool applyBenchArgs(tracejit::EngineOptions &O, int argc, char **argv) {
  bool AllKnown = true;
  for (int I = 1; I < argc; ++I) {
    if (!O.applyFlag(argv[I])) {
      fprintf(stderr, "unknown flag: %s\n", argv[I]);
      AllKnown = false;
    }
  }
  return AllKnown;
}

RunResult runProgram(const BenchProgram &P, const EngineOptions &O,
                     int Runs) {
  RunResult R;
  std::string Reference;

  // Warmup + reference output from a fresh engine.
  {
    Engine E(O);
    std::string Out;
    E.setPrintHook([&](const std::string &S) { Out += S; });
    auto Res = E.eval(P.Source);
    if (!Res.ok()) {
      R.Ok = false;
      R.Error = Res.Err.describe();
      return R;
    }
    Reference = Out;
  }

  double Total = 0;
  double Best = 1e300;
  for (int K = 0; K < Runs; ++K) {
    Engine E(O);
    std::string Out;
    E.setPrintHook([&](const std::string &S) { Out += S; });
    auto T0 = std::chrono::steady_clock::now();
    auto Res = E.eval(P.Source);
    auto T1 = std::chrono::steady_clock::now();
    if (!Res.ok()) {
      R.Ok = false;
      R.Error = Res.Err.describe();
      return R;
    }
    if (Out != Reference) {
      R.Ok = false;
      R.Error = "output mismatch: got '" + Out + "' want '" + Reference + "'";
      return R;
    }
    double Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
    Total += Ms;
    if (Ms < Best)
      Best = Ms;
    if (K == Runs - 1)
      R.Stats = E.stats();
  }
  R.MeanMs = Total / Runs;
  R.BestMs = Best;
  return R;
}

std::string hostJson() {
  std::string Cpu = "unknown";
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("model name", 0) != 0)
      continue;
    size_t Colon = Line.find(':');
    if (Colon != std::string::npos && Colon + 2 <= Line.size())
      Cpu = Line.substr(Colon + 2);
    break;
  }
  std::string Json = "{\"cores\": ";
  Json += std::to_string(std::thread::hardware_concurrency());
  Json += ", \"cpu\": \"";
  for (char C : Cpu)
    if (C != '"' && C != '\\')
      Json += C;
  Json += "\"}";
  return Json;
}

} // namespace tracejit_bench
