var pool = [];
for (var i = 0; i < 8; ++i) {
  var o = {};
  var s = i % 5;
  if (s == 0) { o.p0 = 1; }
  if (s == 1) { o.p1 = 1; o.q1 = 2; }
  if (s == 2) { o.p2 = 1; }
  if (s == 3) { o.p3 = 1; o.q3 = 2; }
  if (s == 4) { o.p4 = 1; }
  o.v = i + 1;
  pool[i] = o;
}
var t = 0;
var x = 12345;
for (var j = 0; j < 400000; ++j) {
  x = (x ^ (x << 7)) & 1048575;
  x = x ^ (x >> 3);
  var k = x & 3;
  if (k == 0) { t = t + pool[x & 7].v; }
  else { if (k == 1) { t = t + pool[(x >> 1) & 7].v * 2; }
  else { if (k == 2) { t = t - pool[(x >> 2) & 7].v; }
  else { t = t + pool[(x >> 3) & 7].v + 1; } } }
}
print(t);
