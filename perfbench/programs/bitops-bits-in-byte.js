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
