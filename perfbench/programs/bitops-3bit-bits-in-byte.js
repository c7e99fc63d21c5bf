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
