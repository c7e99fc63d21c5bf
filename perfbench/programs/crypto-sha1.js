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
  digest = (digest * 31 + sha1core(blocks, nblk)) | 0;
print(digest);
